package app

// Built-in application families, named for selection from CLI flags and
// scenario specs — the application-side counterpart of the scheme and
// workload registries. The list is fixed at compile time (families are
// hand-encoded paper data, not plugins), so this is a lookup table rather
// than a mutable registry.

// BuiltinFamily describes one built-in application family.
type BuiltinFamily struct {
	// Name is the selection key ("study", "full", "socialnet").
	Name string
	// New builds a fresh Spec (specs are cheap; callers that mutate or
	// run concurrently should build one each).
	New func() *Spec
}

// builtins is ordered for presentation: the default family first.
var builtins = []BuiltinFamily{
	// TrainTicket §6 study (8 services, regions A/B).
	{"study", TwoRegionStudy},
	// Full TrainTicket (42 services, 6 regions).
	{"full", TrainTicket},
	// Social network (DeathStarBench-style, 3 regions).
	{"socialnet", SocialNetwork},
}

// Builtin resolves a family name ("" selects the default, "study").
func Builtin(name string) (BuiltinFamily, bool) {
	if name == "" {
		name = "study"
	}
	for _, b := range builtins {
		if b.Name == name {
			return b, true
		}
	}
	return BuiltinFamily{}, false
}

// BuiltinNames lists the family names in presentation order.
func BuiltinNames() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.Name
	}
	return out
}
