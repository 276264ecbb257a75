package experiments

// Budget sweeps fork a warmed run. A sweep's cells share everything up to
// the first budget-dependent event (the first control tick), so Figure14,
// Figure15 and ExtSLO build one donor run per cell group and fork every
// cell from it with engine.ForkEach: the prefix is simulated once per
// group, and each cell's output equals a run built from scratch at its
// budget.

// SetWarmStart does nothing: every budget sweep forks a warmed run. It is
// kept for callers written when forking was opt-in.
func SetWarmStart(bool) {}
