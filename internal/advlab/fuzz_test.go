package advlab

import (
	"errors"
	"testing"

	"repro/internal/pram"
)

// FuzzParseStrategy holds the strategy decoder to its contract on
// arbitrary bytes: an input either fails to parse, or yields a strategy
// whose canonical form parses back to the same digest, that compiles,
// and whose adversary plays a short N=16, P=4 run of algorithm X
// without panicking and without breaking the liveness rule.
func FuzzParseStrategy(f *testing.F) {
	for _, p := range []int{4, 16} {
		for _, s := range BuiltinStrategies(p) {
			f.Add(s.Canonical())
		}
	}
	f.Add(windowStrategy(1, 3, []int{0, 2}).Canonical())
	f.Add([]byte(`{"name":"empty","rules":[]}`))
	f.Add([]byte(`{"name":"x","rules":[{"trigger":{"kind":"stall","stall":2},"target":{"kind":"rotate","k":3,"step":2},"point":"after-write-1","restart_after":3,"budget":{"max_events":9,"max_dead":2}}]}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseStrategy(data)
		if err != nil {
			return
		}
		again, err := ParseStrategy(s.Canonical())
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", s.Canonical(), err)
		}
		if again.Digest() != s.Digest() {
			t.Fatalf("canonical round trip changed the digest: %s != %s", again.Digest(), s.Digest())
		}
		adv, err := s.Compile()
		if err != nil {
			t.Fatalf("parsed strategy does not compile: %v", err)
		}
		alg, _, err := newAlgorithm("X", 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pram.New(pram.Config{N: 16, P: 4, MaxTicks: 2000}, alg, adv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil && !errors.Is(err, pram.ErrTickLimit) {
			t.Fatalf("run under %s: %v", s.Canonical(), err)
		}
		if vs := m.Violations(); len(vs) > 0 {
			t.Fatalf("run under %s broke the liveness rule: %v", s.Canonical(), vs[0])
		}
	})
}
