package exec

// StripTest turns the strip form of single-assignment loops on or off for
// the runs that follow, and counts from then on the assignments that run
// in strips and one statement at a time. restore returns to the default:
// strips on, nothing counted.
func StripTest(on bool) (counts func() (strip, elem int64), restore func()) {
	t := &stripCounts{off: !on}
	stripTest = t
	counts = func() (int64, int64) { return t.strip.Load(), t.elem.Load() }
	return counts, func() { stripTest = nil }
}
