package fault

import "testing"

// FuzzParseSpec feeds arbitrary fault-spec strings to the parser: it
// returns an error, or a Spec that Compile accepts or rejects against
// small switch dimensions — and nothing panics on the way.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		// The cmd/osmosis and README examples, past and present (the
		// ber: clause of the second is now a rejected input).
		"rx:3@4000,stall:50@8000",
		"rx:3@2000,ber:0=1e-4@5000+1000,stall:50@4000,rand:4@1000-8000",
		"rand:4@1000-8000",
		// Every clause kind, as the parser tests write them.
		"rx:3@2000, soaoff:5.1.2@100+50, ber:0=1e-4@5000+1000, credit:7=3@400, stall:10@900, rand:4@1000-8000+200",
		"rx:1.1@100+50,ber:3=1e-4@100+25,credit:5=2@110,stall:7@120",
		"",
		// A random window wider than an int used to panic in Compile.
		"rand:1@0-18446744073709551615",
	} {
		f.Add(s)
	}
	dims := Dims{Ports: 8, Receivers: 2, Fibers: 4}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		sched, err := Compile(spec, dims, 1)
		if err != nil {
			return
		}
		NewInjector(sched).Tick(^uint64(0))
	})
}
