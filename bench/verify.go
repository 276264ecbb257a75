package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"servicefridge/internal/metrics"
)

// Output verification. Every workload output is checked by SHA-256 digest
// under a stable key. At seed 1 the expected digests are pinned: figure
// sections come from the committed experiments_output.txt (read, never
// written) and the control-plane outputs from bench/golden/seed1.sha256.
// At any other seed nothing is pinned, so the first sample of each key
// defines it and every later sample must reproduce it byte for byte.

// goldenFile pins the seed-1 digests of outputs experiments_output.txt
// does not hold, one "<sha256>  <key>" line each.
const goldenFile = "bench/golden/seed1.sha256"

// checker verifies outputs against pinned or first-seen digests and
// counts every check on the run.
type checker struct {
	run  *Run
	want map[string]string
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newChecker loads the pinned digests for seed 1; other seeds start empty.
func newChecker(run *Run, root string) (*checker, error) {
	c := &checker{run: run, want: map[string]string{}}
	if run.Seed != 1 {
		return c, nil
	}
	out, err := os.ReadFile(filepath.Join(root, "experiments_output.txt"))
	if err != nil {
		return nil, err
	}
	for id, text := range splitSections(out) {
		c.want[id] = digest(text)
	}
	f, err := os.Open(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", goldenFile, sc.Text())
		}
		c.want[fields[1]] = fields[0]
	}
	return c, sc.Err()
}

// check verifies one output and counts it as one attempted operation.
func (c *checker) check(key string, got []byte) {
	c.run.Attempted++
	sum := digest(got)
	want, ok := c.want[key]
	if !ok {
		c.want[key] = sum
		return
	}
	if sum != want {
		c.run.failure("%s: output digest %s, want %s", key, sum, want)
	}
}

// fail counts an operation that produced no output to check (an error or a
// non-2xx response).
func (c *checker) fail(format string, args ...any) {
	c.run.Attempted++
	c.run.failure(format, args...)
}

// splitSections cuts the experiments CLI's stdout into its "### <id> — ..."
// sections, each running up to the next section header.
func splitSections(out []byte) map[string][]byte {
	sections := map[string][]byte{}
	var id string
	var start int
	flush := func(end int) {
		if id != "" {
			sections[id] = out[start:end]
		}
	}
	for off := 0; off < len(out); {
		line := out[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		if bytes.HasPrefix(line, []byte("### ")) {
			flush(off)
			id, _, _ = strings.Cut(string(line[4:]), " ")
			start = off
		}
		off += len(line)
	}
	flush(len(out))
	return sections
}

// renderSection formats an experiment's tables exactly as the experiments
// CLI prints them to stdout.
func renderSection(id, title string, tables []*metrics.Table) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "### %s — %s\n\n", id, title)
	for _, tb := range tables {
		fmt.Fprintln(&b, tb)
	}
	return b.Bytes()
}
