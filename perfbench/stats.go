package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// minBeyond is the percentile-support rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// quantile is a nearest-rank percentile estimate with its support.
type quantile struct {
	// Q is the percentile actually reported: the requested one when it is
	// supported, otherwise the highest supported one.
	Q float64
	// Value is the sample at rank ceil(Q*N).
	Value time.Duration
	// N is the sample count and Beyond the number of samples above rank.
	N, Beyond int
}

// rank is the 1-based nearest rank of percentile q among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supportedQuantile reports percentile q of samples under the support
// rule. When fewer than minBeyond samples lie beyond q it falls back to
// the highest percentile that has minBeyond samples beyond it; with
// minBeyond or fewer samples nothing is supported and ok is false.
func supportedQuantile(samples []time.Duration, q float64) (quantile, bool) {
	n := len(samples)
	if n <= minBeyond {
		return quantile{N: n}, false
	}
	if n-rank(q, n) < minBeyond {
		q = float64(n-minBeyond) / float64(n)
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r := rank(q, n)
	return quantile{Q: q, Value: sorted[r-1], N: n, Beyond: n - r}, true
}

// perReg normalises a window total to one registration. A window without
// registrations has no per-registration cost; it reports NaN so the
// caller's output check fails instead of printing a fake zero.
func perReg(total float64, regs int) float64 {
	if regs <= 0 {
		return math.NaN()
	}
	return total / float64(regs)
}

// frac is num/den, zero when nothing was attempted (a layer that is off).
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layers are the attribution buckets for profile stacks, in report order.
var layers = []string{
	"gnb", "ue", "nas", "crypto", "amf", "ausf", "udm", "udr",
	"sbi", "sbi.codec", "paka", "gramine", "sgx", "simclock", "metrics", "other",
}

// layerPackages maps package paths to layers. A package also covers its
// sub-packages unless a longer entry claims them (sbi/codec, crypto/*).
var layerPackages = []struct{ pkg, layer string }{
	{"shield5g/internal/gnb", "gnb"},
	{"shield5g/internal/ue", "ue"},
	{"shield5g/internal/nas", "nas"},
	{"shield5g/internal/crypto", "crypto"},
	{"shield5g/internal/nf/amf", "amf"},
	{"shield5g/internal/nf/ausf", "ausf"},
	{"shield5g/internal/nf/udm", "udm"},
	{"shield5g/internal/nf/udr", "udr"},
	{"shield5g/internal/sbi/codec", "sbi.codec"},
	{"shield5g/internal/sbi", "sbi"},
	{"shield5g/internal/paka", "paka"},
	{"shield5g/internal/hmee/gramine", "gramine"},
	{"shield5g/internal/hmee/sgx", "sgx"},
	{"shield5g/internal/simclock", "simclock"},
	{"shield5g/internal/metrics", "metrics"},
}

const internalPrefix = "shield5g/internal/"

// funcPackage extracts the package path of a fully qualified function
// name such as "shield5g/internal/paka.(*Module).serve.func1". Type
// arguments of generic instantiations may themselves contain paths, so
// the package ends at the first '.' after the last '/' that precedes any
// '[' or '('.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// layerOfPackage maps one package path to its layer; ok is false for
// packages outside shield5g/internal.
func layerOfPackage(pkg string) (string, bool) {
	if !strings.HasPrefix(pkg, internalPrefix) {
		return "", false
	}
	for _, lp := range layerPackages {
		if pkg == lp.pkg || strings.HasPrefix(pkg, lp.pkg+"/") {
			return lp.layer, true
		}
	}
	return "other", true
}

// attribute charges a stack (innermost frame first) to the layer of its
// innermost shield5g/internal frame. Stacks with no such frame (runtime
// background work, the benchmark's own code) go to "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		if layer, ok := layerOfPackage(funcPackage(fn)); ok {
			return layer
		}
	}
	return "other"
}

// median of float samples (NaN for none), for per-chunk rates.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDuration of duration samples (0 for none).
func medianDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(0.5, len(s))-1]
}

// meanDuration of duration samples (0 for none).
func meanDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}
