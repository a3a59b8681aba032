package core

// ConformanceSchedulers hands the conformance harness's scheduler set to the
// external tests of this directory (package core_test), which may import the
// simulator where the in-package tests may not.
var ConformanceSchedulers = conformanceSchedulers

// SpareCount is the number of spares that Factory keeps for s and info's
// shape.
func SpareCount(s Schedule, info LoopInfo) int {
	sparesMu.Lock()
	defer sparesMu.Unlock()
	if home := spares[spareKey{s.WithDefaults(), info.NThreads, info.NumTypes}]; home != nil {
		return len(*home)
	}
	return 0
}
