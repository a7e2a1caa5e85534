package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p90 over fewer than 100 samples has under ten samples
// above it and says more about the sample than about the system.
const minBeyond = 10

// pctl is one percentile of a sample set together with the evidence
// behind it.
type pctl struct {
	Value   float64
	Samples int // size of the sample set
	Beyond  int // samples strictly above the percentile's rank
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses, with an error, a percentile that has fewer than minBeyond
// samples beyond it.
func percentile(xs []float64, q float64) (pctl, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	beyond := n - rank
	if n == 0 || beyond < minBeyond {
		return pctl{Samples: n, Beyond: max(beyond, 0)},
			fmt.Errorf("p%g over %d samples leaves %d beyond it (need %d)", q*100, n, max(beyond, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pctl{Value: s[rank-1], Samples: n, Beyond: beyond}, nil
}

// median is the middle value of xs (mean of the middle two for even
// counts); 0 for an empty set. It backs set-up times and other medians
// that are not reported as latency percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSelf is the CPU time (user + system) this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuOf is the CPU time (user + system) process pid has used, read from
// /proc/<pid>/stat.
func cpuOf(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSKB is VmHWM, the peak resident set of process pid (0 = self),
// in KiB.
func peakRSSKB(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// hostCPU is a reading of the aggregate "cpu" line of /proc/stat.
type hostCPU struct{ total, steal int64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i >= 8 { // guest time is already counted in user time
			break
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealFrac is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealFrac(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
