package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// This file charges the samples of a runtime/pprof CPU profile to the
// repository's layers. It decodes the few protobuf fields it needs (the
// profile format is gzipped protobuf) rather than depend on a profile
// library.

// cpuLayers are the layers CPU time is charged to: the repository's
// packages under internal/, plus "runtime" for samples with no TinMan
// frame and "other" for unlisted packages and the benchmark's own code.
var cpuLayers = []string{
	"apps", "core", "vm", "dsm", "tlssim", "tcpsim", "httpsim", "netsim",
	"node", "policy", "cor", "audit", "store", "nodeproto", "fastjson",
	"fleet", "obs", "runtime", "other",
}

var errBadProfile = errors.New("perfbench: malformed CPU profile")

// layerWeights decodes a CPU profile and adds each layer's sampled CPU
// nanoseconds to weights; it returns the number of samples. Each sample is
// charged to the innermost tinman/internal/<pkg> frame on its stack,
// inlined frames included.
func layerWeights(gz []byte, weights map[string]float64) (int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return 0, fmt.Errorf("perfbench: CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("perfbench: CPU profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]uint64{}   // function -> string index
	)
	err = pbFields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = pbUints(s.locs, wire, v, data)
				case 2:
					s.values, err = pbUints(s.values, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	funcName := func(id uint64) string {
		if i := funcNames[id]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// CPU profiles carry [samples, nanoseconds]; weigh by the last.
		w := float64(s.values[len(s.values)-1])
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := funcName(fn)
				if pkg := internalPkg(name); pkg != "" {
					layer = pkg
					if !isCPULayer(pkg) {
						layer = "other"
					}
					break stack
				}
				if strings.HasPrefix(name, "main.") {
					layer = "other"
				}
			}
		}
		weights[layer] += w
	}
	return int64(len(samples)), nil
}

// setLayerCPU splits cpu (the process CPU time of the profiled phases)
// over the layers by their shares of the profiles' samples and reports
// each per op. The shares must sum to 1 with "other" shown.
func setLayerCPU(rep *report, profiles [][]byte, cpu time.Duration, ops float64) error {
	weights := map[string]float64{}
	var samples int64
	for _, p := range profiles {
		n, err := layerWeights(p, weights)
		if err != nil {
			return err
		}
		samples += n
	}
	if samples == 0 {
		rep.problem("CPU profile holds no samples")
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(weights[l], total)
	}
	var sum float64
	var line strings.Builder
	for _, l := range cpuLayers {
		sum += shares[l]
		rep.set(l+".cpu_us_per_op", shares[l]*us(cpu)/ops, "us")
		if shares[l] >= 0.005 {
			fmt.Fprintf(&line, " %s %.1f%%", l, 100*shares[l])
		}
	}
	if samples > 0 && (sum < 0.999 || sum > 1.001) {
		rep.problem("CPU layer shares sum to %.4f, not 1", sum)
	}
	fmt.Printf("# cpu profile: %d samples, shares sum %.1f%% (other %.1f%%):%s\n",
		samples, 100*sum, 100*shares["other"], line.String())
	return nil
}

// internalPkg returns the first path element below tinman/internal/ of a
// function's package ("vm" for tinman/internal/vm/asm.Parse), or "".
func internalPkg(fn string) string {
	const prefix = "tinman/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if end := strings.IndexAny(rest, "./"); end >= 0 {
		return rest[:end]
	}
	return rest
}

func isCPULayer(pkg string) bool {
	for _, l := range cpuLayers {
		if l == pkg {
			return true
		}
	}
	return false
}

// pbFields calls fn for each field of one protobuf message; v carries
// varint and fixed-width values, data length-delimited payloads.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, in packed or unpacked form.
func pbUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
