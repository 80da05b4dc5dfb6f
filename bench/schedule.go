package main

import (
	"hash/fnv"

	"mca/internal/clock"
	"mca/internal/workload"
)

// op is one generated operation: the system under test sees nothing of
// the seed but these.
type op struct {
	class opClass
	key   uint32
	// abort asks for the structure's deliberate failure: a serializing
	// op cancels its container after both constituents committed, an
	// independent op aborts its invoker after the independent action
	// committed. Either way the constituents' effects must survive.
	abort bool
}

// schedule is one client's op stream, a pure function of (workload,
// seed, client).
type schedule struct {
	r    *clock.Rand
	mix  []mixEntry
	keys workload.KeyDist
}

func newSchedule(spec *workloadSpec, seed uint64, client int) *schedule {
	var keys workload.KeyDist = workload.UniformKeys{N: uint64(spec.keys)}
	if spec.zipf {
		keys = workload.NewZipf(uint64(spec.keys), zipfTheta)
	}
	// clock.Rand is not concurrent-safe, so each client draws its own
	// stream; the odd multiplier keeps neighbouring seeds apart.
	return &schedule{
		r:    clock.NewRand(seed*0x9E3779B97F4A7C15 + uint64(client)*0xD1B54A32D192ED03),
		mix:  spec.mix,
		keys: keys,
	}
}

func (s *schedule) next() op {
	var o op
	x := s.r.Intn(100)
	for _, m := range s.mix {
		if x < m.weight {
			o.class = m.class
			break
		}
		x -= m.weight
	}
	o.key = uint32(s.keys.Pick(s.r))
	switch o.class {
	case clsSerializing:
		o.abort = s.r.Intn(100) < 5
	case clsIndependent:
		o.abort = s.r.Intn(100) < 20
	}
	return o
}

// scheduleHash fingerprints the first n ops of every client's stream.
func scheduleHash(spec *workloadSpec, seed uint64, n int) uint64 {
	h := fnv.New64a()
	for c := 0; c < numClients; c++ {
		s := newSchedule(spec, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			b := byte(0)
			if o.abort {
				b = 1
			}
			h.Write([]byte{byte(o.class), byte(o.key), byte(o.key >> 8), byte(o.key >> 16), byte(o.key >> 24), b})
		}
	}
	return h.Sum64()
}
