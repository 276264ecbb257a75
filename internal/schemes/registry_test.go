package schemes

import (
	"strings"
	"testing"
)

// TestBuiltinRegistrations: the four comparator schemes plus Baseline are
// registered at init, and Compared() pins the Figure 15-16 column order
// regardless of registration order.
func TestBuiltinRegistrations(t *testing.T) {
	for _, name := range []string{"Baseline", "Capping", "P-first", "T-first"} {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("built-in scheme %q not registered", name)
		}
		if r.New == nil {
			t.Fatalf("scheme %q registered without a factory", name)
		}
	}
	want := []string{"P-first", "T-first", "ServiceFridge", "Capping"}
	got := Compared()
	// ServiceFridge registers from internal/fridge; a pure schemes-package
	// test binary does not link it, so tolerate its absence here (the
	// engine-level test asserts the full set).
	if _, hasFridge := Lookup("ServiceFridge"); !hasFridge {
		want = []string{"P-first", "T-first", "Capping"}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Compared() = %v, want %v", got, want)
	}
	bl, _ := Lookup("Baseline")
	if bl.CompareRank > 0 {
		t.Fatal("Baseline must not be part of the comparison set")
	}
	if !bl.SkipTickWithFixedFreqs {
		t.Fatal("Baseline must skip the control tick under pinned frequencies")
	}
}

// TestNewUnknownScheme: an unknown name is a miss, not a panic, and the
// known set is listable — the two pieces the CLIs' unknown-scheme error
// is built from.
func TestNewUnknownScheme(t *testing.T) {
	if r, ok := Lookup("NoSuchScheme"); ok || r.New != nil {
		t.Fatalf("Lookup of an unknown name = %+v, %v; want a miss", r, ok)
	}
	if !strings.Contains(strings.Join(Names(), ", "), "Baseline") {
		t.Fatalf("Names() = %v should list the known set", Names())
	}
}

// TestRegisterValidation: incomplete or duplicate registrations are
// programming errors and panic at init time.
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", label)
			}
		}()
		fn()
	}
	mustPanic("missing name", func() {
		Register(Registration{New: func(BuildInput) Built { return Built{} }})
	})
	mustPanic("missing factory", func() {
		Register(Registration{Name: "incomplete"})
	})
	mustPanic("duplicate", func() {
		Register(Registration{Name: "Baseline", New: func(BuildInput) Built { return Built{} }})
	})
}

// TestExtensionRegistration: a package outside the engine can add a scheme
// and have it resolvable by name — the extension point the registry exists
// for. Rank 0 keeps it out of the paper's comparison set.
func TestExtensionRegistration(t *testing.T) {
	called := false
	Register(Registration{
		Name: "test-extension",
		New: func(in BuildInput) Built {
			called = true
			return Built{Scheme: NewBaseline(in.Ctx)}
		},
	})
	r, ok := Lookup("test-extension")
	if !ok {
		t.Fatal("extension not resolvable by name")
	}
	r.New(BuildInput{})
	if !called {
		t.Fatal("factory was not invoked")
	}
	for _, n := range Compared() {
		if n == "test-extension" {
			t.Fatal("rank-0 extension leaked into the comparison set")
		}
	}
	found := false
	for _, n := range Names() {
		if n == "test-extension" {
			found = true
		}
	}
	if !found {
		t.Fatal("extension missing from Names()")
	}
}
