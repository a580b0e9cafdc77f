package sim

import "math"

// RNG is a small, fast, reproducible pseudo-random generator
// (xoshiro256**, seeded through SplitMix64). Each simulation owns
// independent streams so that, for example, changing how many random
// numbers the deadline assigner draws does not perturb the arrival process
// of an otherwise identical experiment.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed (re)initializes the generator in place, producing exactly the state
// NewRNG(seed) would. It exists so hot paths can keep RNG values on the
// stack (or embedded in a reused struct) instead of allocating via NewRNG.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm = splitmix64(&r.s[i], sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the SplitMix64 state and writes the next output.
func splitmix64(out *uint64, state uint64) uint64 {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	*out = z ^ (z >> 31)
	return state
}

// Stream derives an independent generator from this one, keyed by id.
// Streams with distinct ids are statistically independent for simulation
// purposes, and the parent's own sequence is not advanced.
func (r *RNG) Stream(id uint64) *RNG {
	dst := &RNG{}
	r.StreamInto(dst, id)
	return dst
}

// StreamInto is Stream without the allocation: it seeds dst with the same
// state Stream(id) would return. dst may live on the caller's stack.
func (r *RNG) StreamInto(dst *RNG, id uint64) {
	dst.Seed(r.s[0] ^ (id+1)*0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponential variate with the given mean. Mean <= 0 yields 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -mean * math.Log(1-u)
}

// Normal returns a normal variate via the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// TruncNormal returns a normal variate resampled until it lies in
// [lo, hi]. It panics if lo > hi.
func (r *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if lo > hi {
		panic("sim: TruncNormal with lo > hi")
	}
	if stddev <= 0 {
		return math.Min(hi, math.Max(lo, mean))
	}
	for i := 0; i < 1000; i++ {
		x := r.Normal(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	// Pathological truncation region; fall back to the clamped mean so the
	// simulation still terminates deterministically.
	return math.Min(hi, math.Max(lo, mean))
}

// Lognormal returns exp(Normal(mu, sigma)), parameterized by the
// underlying normal distribution.
func (r *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// LognormalMeanCV returns a lognormal variate parameterized by its own
// mean and coefficient of variation (stddev/mean), which is how workload
// models are usually specified.
func (r *RNG) LognormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return r.Lognormal(mu, math.Sqrt(sigma2))
}

// Weibull returns a Weibull variate with the given scale and shape.
func (r *RNG) Weibull(scale, shape float64) float64 {
	if scale <= 0 || shape <= 0 {
		return 0
	}
	u := r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Choice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero; if
// all weights are zero it returns 0.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm fills a permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
