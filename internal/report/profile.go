package report

import (
	"io"

	"subthreads/internal/isa"
	"subthreads/internal/sim"
)

// ProfilePair is one dependence of the machine-readable §3.1 profile.
type ProfilePair struct {
	LoadPC       isa.PC `json:"load_pc"`
	LoadSite     string `json:"load_site"`
	StorePC      isa.PC `json:"store_pc"`
	StoreSite    string `json:"store_site"`
	FailedCycles uint64 `json:"failed_cycles"`
	Violations   uint64 `json:"violations"`
}

// Profile is the §3.1 dependence profile of one run as JSON (`tlssim
// -profile-out`): the violation counts, the failed cycles the modelled pair
// list attributed, and its top pairs with their site names resolved.
type Profile struct {
	Benchmark           string        `json:"benchmark"`
	Experiment          string        `json:"experiment"`
	OptLevel            int           `json:"opt_level"`
	Cycles              uint64        `json:"cycles"`
	PrimaryViolations   uint64        `json:"primary_violations"`
	SecondaryViolations uint64        `json:"secondary_violations"`
	FailedCycles        uint64        `json:"failed_cycles_attributed"`
	PairsTracked        int           `json:"pairs_tracked"`
	Reclaimed           uint64        `json:"pairs_reclaimed"`
	Pairs               []ProfilePair `json:"pairs"`
}

// BuildProfile assembles the profile document from a run's top n pairs,
// naming their sites through reg.
func BuildProfile(benchmark, experiment string, optLevel int, res *sim.Result, reg *isa.PCRegistry, n int) Profile {
	p := Profile{
		Benchmark:           benchmark,
		Experiment:          experiment,
		OptLevel:            optLevel,
		Cycles:              res.Cycles,
		PrimaryViolations:   res.TLS.PrimaryViolations,
		SecondaryViolations: res.TLS.SecondaryViolations,
		FailedCycles:        res.Pairs.TotalFailedCycles(),
		PairsTracked:        res.Pairs.Len(),
		Reclaimed:           res.Pairs.Reclaimed,
		Pairs:               []ProfilePair{},
	}
	for _, st := range res.Pairs.Top(n) {
		p.Pairs = append(p.Pairs, ProfilePair{
			LoadPC:       st.LoadPC,
			LoadSite:     reg.Name(st.LoadPC),
			StorePC:      st.StorePC,
			StoreSite:    reg.Name(st.StorePC),
			FailedCycles: st.FailedCycles,
			Violations:   st.Violations,
		})
	}
	return p
}

// WriteProfile writes the profile as indented JSON.
func WriteProfile(w io.Writer, p Profile) error { return writeIndented(w, p) }
