package ch

// SlackArrays names the restricted CSR arrays of sel whose capacity
// exceeds their length — growth slack a fresh selection must not retain.
func SlackArrays(sel *Selection) []string {
	var slack []string
	for _, d := range []struct {
		dir string
		r   *restrictedCSR
	}{{"fwd", &sel.fwd}, {"bwd", &sel.bwd}} {
		for _, a := range []struct {
			name     string
			len, cap int
		}{
			{"nodes", len(d.r.nodes), cap(d.r.nodes)},
			{"off", len(d.r.off), cap(d.r.off)},
			{"arcs", len(d.r.arcs), cap(d.r.arcs)},
			{"ends", len(d.r.ends), cap(d.r.ends)},
		} {
			if a.cap != a.len {
				slack = append(slack, d.dir+"."+a.name)
			}
		}
	}
	return slack
}

// InertMask returns tb's pair-space inert mask (nil on a pruned builder).
func InertMask(tb *TreeBuilder) []bool { return tb.inert }

// JointPairs returns the chordal pairs j keeps, in slot order: per
// position, the joint's slots are a subsequence of the topology's, and a
// position's slots lead to distinct upper positions.
func JointPairs(j *Joint) []int32 {
	var pairs []int32
	top := j.a.top
	for i := 0; i < top.n; i++ {
		k := j.off[i]
		for s := top.off[i]; s < top.off[i+1]; s++ {
			if k < j.off[i+1] && top.up[s] == j.up[k] {
				pairs = append(pairs, top.pair[s])
				k++
			}
		}
		if k != j.off[i+1] {
			panic("ch: joint slots are not a subsequence of the topology's")
		}
	}
	return pairs
}
