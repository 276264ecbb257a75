package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// golden runs the command and compares stdout against a checked-in
// artifact; regenerate with `go run ./cmd/mcf <args> > testdata/<name>`.
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s",
			name, stdout.String(), want)
	}
}

func TestGoldenDefault(t *testing.T) {
	golden(t, "study.golden.txt")
}

func TestGoldenMixAndFreq(t *testing.T) {
	golden(t, "mix_freq.golden.txt", "-mix", "A=10,B=40", "-freq", "1.8")
}

func TestExportRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-export"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "\"services\"") {
		t.Fatalf("export is not a spec JSON:\n%s", stdout.String())
	}
}

func TestBadMixFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "A=x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for malformed mix, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Fatal("no diagnostic on stderr")
	}
}

func TestUnknownRegionFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "Z=1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d for unknown region, want 2", code)
	}
}

// TestWeightOverflowFails: a profile whose call weight (times × execMs),
// or whose region's sum of weights for one service, overflows a
// time.Duration is refused naming the region and the call, instead of
// ranking the service with a wrapped, negative MCF.
func TestWeightOverflowFails(t *testing.T) {
	const profile = `{"services":[{"name":"api","kind":"api","cpuShare":0.5},` +
		`{"name":"f","kind":"function","cpuShare":0.8,"jitter":0.08}],"regions":[` +
		`{"name":"A","api":"api","apiExecMs":2,"stages":[%s]},` +
		`{"name":"B","api":"api","apiExecMs":2,"stages":[[{"service":"f","times":1,"execMs":1}]]}]}`
	for _, tc := range []struct{ stages, want string }{
		{`[{"service":"f","times":1000000000,"execMs":10000}]`,
			`region "A" call to "f": times 1000000000 × execMs 10000 overflows a time.Duration`},
		{`[{"service":"f","times":600000000,"execMs":10000}],[{"service":"f","times":600000000,"execMs":10000}]`,
			`region "A" call to "f": the region's calls to "f" total over a time.Duration`},
	} {
		path := filepath.Join(t.TempDir(), "profile.json")
		if err := os.WriteFile(path, []byte(fmt.Sprintf(profile, tc.stages)), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-spec", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1 (stdout %q)", code, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("stderr %q lacks %q", stderr.String(), tc.want)
		}
	}
}
