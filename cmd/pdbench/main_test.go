package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseProcs(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr string
	}{
		{in: "1,2,4,8", want: []int{1, 2, 4, 8}},
		{in: " 2 , 16 ", want: []int{2, 16}},
		{in: "4", want: []int{4}},
		{in: "2,x", wantErr: `bad processor count "x"`},
		{in: "", wantErr: `bad processor count ""`},
		{in: "0", wantErr: "must be positive"},
		{in: "4,-2", wantErr: "must be positive"},
		{in: "2,4,2", wantErr: "duplicate processor count 2"},
	}
	for _, tt := range tests {
		got, err := parseProcs(tt.in)
		if tt.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("parseProcs(%q) err = %v, want containing %q", tt.in, err, tt.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseProcs(%q) failed: %v", tt.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("parseProcs(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestCheckFig(t *testing.T) {
	for _, name := range append([]string{"none", "all"}, figures...) {
		if err := checkFig(name); err != nil {
			t.Errorf("checkFig(%q) failed: %v", name, err)
		}
	}
	for _, name := range []string{"engine", "bogus", "", "6,7"} {
		err := checkFig(name)
		if err == nil {
			t.Errorf("checkFig(%q) accepted an unknown figure", name)
			continue
		}
		for _, valid := range []string{"multiplex", "none", "all"} {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("checkFig(%q) error does not name the valid value %q: %v", name, valid, err)
			}
		}
	}
}
