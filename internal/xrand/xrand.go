// Package xrand provides a small, deterministic pseudo-random number
// generator and the distributions used throughout the simulator.
//
// Every stochastic component in the repository draws from an *xrand.Rand
// seeded from an explicit configuration value, so that a scenario is
// bit-reproducible across runs and platforms. The generator is a
// splitmix64-seeded xoshiro256** — fast, well distributed, and independent
// of the Go runtime's math/rand sequence guarantees.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator. The zero value is
// not ready for use; construct with New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed expander; it is used only to initialize the
// xoshiro state so that nearby seeds yield unrelated streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. It is small enough to
// inline, so a generator that does not outlive its caller stays on the
// caller's stack.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.seed(seed)
	return r
}

func (r *Rand) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state, which is
	// the one fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a generator that is a pure function of (seed, keys):
// unlike Split it consumes no draw and touches no shared state, so it is
// safe to call concurrently and yields the same stream regardless of call
// order. This is the RNG-splitting rule for sharded parallel work
// (internal/par): key every stream by the item or shard index — never by
// the worker or by scheduling — and random draws stay bit-identical at
// any worker count. Nearby keys yield unrelated streams (each key passes
// through a full splitmix64 round before mixing).
func Derive(seed uint64, keys ...uint64) *Rand {
	h := seed
	for _, k := range keys {
		x := k
		h ^= splitmix64(&x)
		// Stir between keys so (a,b) and (b,a) land on different states.
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	}
	return New(h)
}

// Split derives an independent generator from r, keyed by label. Deriving
// rather than sharing keeps subsystem streams decoupled: adding draws in
// one module does not perturb another module's sequence.
func (r *Rand) Split(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(h ^ r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). A non-positive n yields 0 (the
// only index an empty or degenerate range can offer) without consuming a
// draw, so callers never crash on an empty pool.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Marsaglia polar method.
func (r *Rand) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma are the parameters of
// the underlying normal, not the mean of the result.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return expOf(r.expNumerator(), mean)
}

// ExpKth draws len(buf) Exp(mean) values and returns the k-th smallest
// (0-based, k < len(buf)), bit for bit what sorting the draws of
// len(buf) Exp calls would put at index k, and it consumes the same
// draws. It takes one Log instead of len(buf): Exp does not increase
// with its uniform, so the k-th smallest value is Exp of the k-th
// largest uniform, which is selected on the integer numerators. buf is
// scratch, overwritten.
func (r *Rand) ExpKth(buf []uint64, k int, mean float64) float64 {
	n := len(buf)
	for i := range buf {
		buf[i] = r.expNumerator()
	}
	// Odd-even transposition: n rounds of branchless compare-exchanges
	// sort any n ascending.
	for round := 0; round < n; round++ {
		for i := round & 1; i+1 < n; i += 2 {
			a, b := buf[i], buf[i+1]
			buf[i], buf[i+1] = min(a, b), max(a, b)
		}
	}
	return expOf(buf[n-1-k], mean)
}

// expNumerator draws the numerator of a Float64 uniform, redrawing a 0
// (Exp's Log(0) would be infinite).
func (r *Rand) expNumerator() uint64 {
	for {
		if x := r.Uint64() >> 11; x != 0 {
			return x
		}
	}
}

// expOf maps a Float64 numerator to Exp(mean).
func expOf(x uint64, mean float64) float64 {
	return -mean * math.Log(float64(x)/(1<<53))
}

// Pareto returns a Pareto(xm, alpha) value: heavy-tailed, minimum xm.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean. Small
// means use Knuth's product method; large means (≥ 30, where the product
// method would burn one draw per event) use the normal approximation
// rounded and clamped at zero, which is accurate to well under a count at
// the arrival-process scales the load generator drives. A non-positive or
// NaN mean yields 0 without consuming a draw.
func (r *Rand) Poisson(mean float64) int {
	if !(mean > 0) {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.Norm(mean, math.Sqrt(mean))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights count as zero; when the sum
// is not positive (including an empty slice) it returns 0 without
// consuming a draw, mirroring Intn's degenerate-pool behavior.
func (r *Rand) WeightedChoice(weights []float64) int {
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return 0
	}
	u := r.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
