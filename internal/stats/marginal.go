package stats

import "fmt"

// Marginal utilities: value frequencies and the two homophily models
// that turn a correlation's `homophily h` into its target joint, one per
// kind of joint.

// Frequencies counts label occurrences, returning counts[v] for
// v in [0, k).
func Frequencies(labels []int64, k int) ([]int64, error) {
	counts := make([]int64, k)
	for i, l := range labels {
		if l < 0 || l >= int64(k) {
			return nil, fmt.Errorf("stats: label %d at %d outside [0,%d)", l, i, k)
		}
		counts[l]++
	}
	return counts, nil
}

// HomophilyJoint builds a synthetic joint distribution over k values
// with group-size proportions sizes (need not be normalised): a
// fraction `homophily` of edges fall within a group (distributed
// proportionally to the number of intra pairs ~ size²) and the rest
// across groups (proportionally to size_a·size_b). homophily = 1 gives
// a perfectly clustered graph; 0 mixes freely. This is how a DSL user
// writes "Persons from the same country are more likely to know each
// other".
func HomophilyJoint(sizes []int64, homophily float64) (*Joint, error) {
	k := len(sizes)
	if k == 0 {
		return nil, fmt.Errorf("stats: homophily joint needs at least one group")
	}
	if homophily < 0 || homophily > 1 {
		return nil, fmt.Errorf("stats: homophily %v outside [0,1]", homophily)
	}
	var total float64
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("stats: group %d has non-positive size %d", i, s)
		}
		total += float64(s)
	}
	j := NewJoint(k)
	// Intra mass ∝ size_a², inter mass ∝ 2·size_a·size_b. Each product
	// is rounded on its own (the explicit float64), so no GOARCH fuses
	// it into the sum and the target is the same everywhere.
	var intraW, interW float64
	for a := 0; a < k; a++ {
		intraW += float64(float64(sizes[a]) * float64(sizes[a]))
		for b := a + 1; b < k; b++ {
			interW += float64(2 * float64(sizes[a]) * float64(sizes[b]))
		}
	}
	for a := 0; a < k; a++ {
		w := float64(sizes[a]) * float64(sizes[a]) / intraW
		j.Set(a, a, homophily*w)
		for b := a + 1; b < k; b++ {
			if interW > 0 {
				w := 2 * float64(sizes[a]) * float64(sizes[b]) / interW
				j.Set(a, b, (1-homophily)*w)
			}
		}
	}
	if k == 1 {
		j.Set(0, 0, 1)
	}
	// With a single group or homophily==1, inter mass must fold back.
	j.Normalize()
	return j, nil
}

// AlignedHomophilyJoint builds the two-domain joint of a tail/head
// correlation from the tail and head value weights (need not be
// normalised): tail value a and head value b are aligned when
// a ≡ b (mod min(kt, kh)); a fraction `homophily` of the mass falls on
// aligned pairs and the rest on the others, each spread in proportion to
// the product of the pair's weights. The caller has checked homophily
// is in [0,1].
func AlignedHomophilyJoint(tailW, headW []float64, homophily float64) (*Joint, error) {
	kt, kh := len(tailW), len(headW)
	j := NewJoint(kt + kh)
	j.Tails = kt
	minK := min(kt, kh)
	var diagW, offW float64
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			w := float64(tailW[a] * headW[b]) // rounded before the sums: no fused multiply-add
			if a%minK == b%minK {
				diagW += w
			} else {
				offW += w
			}
		}
	}
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			w := tailW[a] * headW[b]
			if a%minK == b%minK {
				if diagW > 0 {
					j.Set(a, kt+b, homophily*w/diagW)
				}
			} else if offW > 0 {
				j.Set(a, kt+b, (1-homophily)*w/offW)
			}
		}
	}
	j.Normalize()
	return j, j.Validate()
}
