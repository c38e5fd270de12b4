package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// internalPrefix marks the simulator's own packages in profile frames.
const internalPrefix = "hdpat/internal/"

// foldProfile folds a CPU profile by package with `go tool pprof -traces`,
// which ships with the toolchain.
func foldProfile(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces charges each sample of `pprof -traces` output to the innermost
// frame that belongs to a hdpat/internal package, so runtime work a layer
// causes (allocation, GC assists, map access) counts as that layer's.
// Samples with no such frame (background GC, the HTTP stack, idle runtime)
// are charged to "other". It returns each package's share of all samples,
// keyed by the package's last path element.
func foldTraces(text []byte) (map[string]float64, error) {
	charged := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	module := ""
	open := false
	flush := func() {
		if !open {
			return
		}
		if module == "" {
			module = "other"
		}
		charged[module] += value
		total += value
		open, module = false, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		// A sample opens with "<value>   <leaf frame>"; the frames of its
		// callers follow, one per line. No function name parses as a
		// duration.
		if v, rest, ok := strings.Cut(frame, " "); ok {
			if d, err := time.ParseDuration(v); err == nil {
				flush()
				open, value = true, d
				frame = strings.TrimSpace(rest)
			}
		}
		if open && module == "" {
			module = packageModule(strings.TrimSuffix(frame, " (inline)"))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for k, v := range charged {
		shares[k] = float64(v) / float64(total)
	}
	return shares, nil
}

// packageModule returns the hdpat/internal package name of a profile
// function name, or "" for any other package.
func packageModule(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}
