package faultinj

import (
	"errors"
	"strings"
	"testing"
)

// TestParseClassesRejectsDuplicates (satellite: duplicate classes): a class
// named twice would silently inflate the planned-cell count; it is refused
// with a typed *DuplicateClassError naming the class.
func TestParseClassesRejectsDuplicates(t *testing.T) {
	_, err := ParseClasses("load,fetch,load")
	var dup *DuplicateClassError
	if !errors.As(err, &dup) {
		t.Fatalf("duplicate class: want *DuplicateClassError, got %v", err)
	}
	if dup.Class != ClassLoad {
		t.Errorf("DuplicateClassError names %v, want load", dup.Class)
	}
	if !strings.Contains(err.Error(), "load") {
		t.Errorf("error text should name the class: %q", err)
	}
	// Whitespace-trimmed duplicates are still duplicates.
	if _, err := ParseClasses("squash, squash"); err == nil {
		t.Error("trimmed duplicate accepted")
	}
}
