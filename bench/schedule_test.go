package main

import "testing"

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a, b := scheduleHash(spec, 7, 5000), scheduleHash(spec, 7, 5000)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %x and then %x", spec.name, a, b)
		}
		if c := scheduleHash(spec, 8, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 generate the same ops", spec.name)
		}
	}
}

func TestScheduleFollowsTheMix(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		total := 0
		for _, m := range spec.mix {
			total += m.weight
		}
		if total != 100 {
			t.Fatalf("%s: mix weights sum to %d", spec.name, total)
		}
		const n = 20000
		var got [numClasses]int
		s := newSchedule(spec, 1, 0)
		for j := 0; j < n; j++ {
			o := s.next()
			if int(o.key) >= spec.keys {
				t.Fatalf("%s: key %d out of range", spec.name, o.key)
			}
			got[o.class]++
		}
		for _, m := range spec.mix {
			if share := 100 * float64(got[m.class]) / n; share < float64(m.weight)-2 || share > float64(m.weight)+2 {
				t.Errorf("%s: %s is %.1f%% of the ops, want %d%%", spec.name, classNames[m.class], share, m.weight)
			}
		}
	}
}
