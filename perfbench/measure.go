package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"nanocache/internal/verify"
)

// rounds runs whole rounds of the same work until their summed time reaches
// seconds (at least one round), and returns each round's duration. Work
// done inside a round but outside its timing (checks) does not count.
func rounds(seconds float64, round func(i int) (time.Duration, error)) ([]time.Duration, error) {
	var ds []time.Duration
	var sum time.Duration
	for i := 0; i == 0 || sum.Seconds() < seconds; i++ {
		d, err := round(i)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		ds = append(ds, d)
		sum += d
		fmt.Fprintf(os.Stderr, "round %d: %.4f s\n", i, d.Seconds())
	}
	return ds, nil
}

// quantile returns the q-quantile of xs (nearest rank on sorted values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs, averaging the middle pair.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// digester accumulates the canonical JSON of every simulated result of a
// round, so two runs at one seed can be compared bit for bit.
type digester struct {
	h   [sha256.Size]byte
	buf []byte
}

// add folds v's canonical JSON (verify.MarshalGolden) into the digest.
func (d *digester) add(label string, v any) error {
	b, err := verify.MarshalGolden(v)
	if err != nil {
		return fmt.Errorf("digest %s: %w", label, err)
	}
	d.addBytes(label, b)
	return nil
}

// addBytes folds already-canonical bytes into the digest.
func (d *digester) addBytes(label string, b []byte) {
	d.buf = append(d.buf[:0], d.h[:]...)
	d.buf = append(d.buf, label...)
	d.buf = append(d.buf, 0)
	d.buf = append(d.buf, b...)
	d.h = sha256.Sum256(d.buf)
}

func (d *digester) sum() string { return "sha256:" + hex.EncodeToString(d.h[:]) }
