package schemes

import (
	"fmt"
	"sort"
	"sync"

	"servicefridge/internal/app"
	"servicefridge/internal/workload"
)

// BuildInput carries everything a scheme factory may need to assemble one
// run's controller: the shared observe/actuate context and the application
// spec (T-first ranks services by its offline profile; ServiceFridge builds
// its MCF graph from it).
type BuildInput struct {
	Ctx  *Context
	Spec *app.Spec
}

// Built is a factory's product: the scheme itself plus optional hooks the
// experiment engine wires in.
type Built struct {
	Scheme Scheme
	// WrapLauncher, when non-nil, interposes the scheme on the request
	// path (ServiceFridge feeds its indegree counters this way).
	WrapLauncher func(workload.Launcher) workload.Launcher
}

// Factory builds a scheme instance for one experiment run.
type Factory func(BuildInput) Built

// Registration describes one scheme in the registry.
type Registration struct {
	// Name is the scheme's public identifier (Table 3 naming).
	Name string
	// New builds the scheme for one run.
	New Factory
	// CompareRank orders the scheme within the capped-scheme comparison
	// set of Figures 15-16; 0 (or negative) excludes it from that set
	// (Baseline is the uncapped reference, not a comparator).
	CompareRank int
	// SkipTickWithFixedFreqs suppresses the periodic control tick when a
	// run pins per-node frequencies at t=0: Baseline must not reset the
	// pinned P-states every interval (Figures 5-6 isolation studies).
	SkipTickWithFixedFreqs bool
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a scheme to the registry. It panics on a duplicate or
// incomplete registration — registrations happen in package init functions,
// where a bad one is a programming error. Extension packages (experiment
// studies, tests) can register additional schemes without touching the
// experiment engine.
func Register(r Registration) {
	if r.Name == "" || r.New == nil {
		panic("schemes: Register needs a Name and a New factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[r.Name]; dup {
		panic(fmt.Sprintf("schemes: duplicate registration of %q", r.Name))
	}
	registry[r.Name] = r
}

// Lookup returns the registration for name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns every registered scheme name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Compared returns the capped schemes of the Figures 15-16 comparison, in
// CompareRank order — the paper's presentation order, independent of
// registration order.
func Compared() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var rs []Registration
	for _, r := range registry {
		if r.CompareRank > 0 {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].CompareRank != rs[j].CompareRank {
			return rs[i].CompareRank < rs[j].CompareRank
		}
		return rs[i].Name < rs[j].Name
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Name
	}
	return out
}

// The comparator schemes of Table 3 register here; ServiceFridge registers
// from internal/fridge, whose init runs after this one (it imports this
// package). CompareRank values pin the Figure 15-16 column order:
// P-first, T-first, ServiceFridge, Capping.
func init() {
	Register(Registration{
		Name:                   "Baseline",
		New:                    func(in BuildInput) Built { return Built{Scheme: NewBaseline(in.Ctx)} },
		SkipTickWithFixedFreqs: true,
	})
	Register(Registration{
		Name:        "Capping",
		New:         func(in BuildInput) Built { return Built{Scheme: NewCapping(in.Ctx)} },
		CompareRank: 4,
	})
	Register(Registration{
		Name:        "P-first",
		New:         func(in BuildInput) Built { return Built{Scheme: NewPFirst(in.Ctx)} },
		CompareRank: 1,
	})
	Register(Registration{
		Name:        "T-first",
		New:         func(in BuildInput) Built { return Built{Scheme: NewTFirst(in.Ctx, in.Spec)} },
		CompareRank: 2,
	})
}
