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
