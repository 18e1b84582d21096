// Package cli holds what pdc, pdrun and pdmap share as commands: how a
// program's source is read and how -D overrides are parsed.
package cli

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadSource returns the program text: the named file, or all of stdin when
// file is empty. A read that fails before EOF is an error, never a silently
// truncated program.
func ReadSource(file string, stdin io.Reader) (string, error) {
	if file == "" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return "", fmt.Errorf("reading source: %w", err)
		}
		return string(data), nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Defines is the repeatable -D NAME=VALUE flag.
type Defines map[string]int64

func (d *Defines) String() string { return fmt.Sprint(map[string]int64(*d)) }

func (d *Defines) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	if *d == nil {
		*d = Defines{}
	}
	(*d)[name] = v
	return nil
}
