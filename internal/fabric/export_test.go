package fabric

// AdmissionBounds returns, by merge name, the admission bound Check
// installed on each loop-entry merge's LoopCtl (0 = unbounded).
func AdmissionBounds(g *Graph) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range g.Sys.Components() {
		if m, ok := c.(*Merge); ok && m.loopEntry() {
			out[m.Name()] = m.ctl.limit
		}
	}
	return out
}
