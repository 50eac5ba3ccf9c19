package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// ReadMode selects how many nodes a scatter-gather round must reach
// before the coordinator serves the merged view.
type ReadMode int

const (
	// ReadStrict (default): every node, every read. Any unreachable
	// node fails the read 503 — estimates are always the full union.
	ReadStrict ReadMode = iota
	// ReadPartial: serve whenever at least one node is reachable,
	// labeling the response with an explicit degraded block.
	ReadPartial
	// ReadQuorum: serve when at least Quorum nodes are reachable.
	ReadQuorum
)

// ReadPolicy is a parsed -cluster-read value.
type ReadPolicy struct {
	Mode   ReadMode
	Quorum int // meaningful for ReadQuorum only
}

// ParseReadPolicy parses "strict", "partial" or "quorum=<n>".
func ParseReadPolicy(s string) (ReadPolicy, error) {
	switch {
	case s == "" || s == "strict":
		return ReadPolicy{Mode: ReadStrict}, nil
	case s == "partial":
		return ReadPolicy{Mode: ReadPartial}, nil
	case strings.HasPrefix(s, "quorum="):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "quorum="))
		if err != nil || n < 1 {
			return ReadPolicy{}, fmt.Errorf("cluster read policy: quorum must be a positive integer, got %q", s)
		}
		return ReadPolicy{Mode: ReadQuorum, Quorum: n}, nil
	default:
		return ReadPolicy{}, fmt.Errorf("cluster read policy: %q (want strict, partial or quorum=<n>)", s)
	}
}

func (p ReadPolicy) String() string {
	switch p.Mode {
	case ReadPartial:
		return "partial"
	case ReadQuorum:
		return fmt.Sprintf("quorum=%d", p.Quorum)
	default:
		return "strict"
	}
}

// floor is the minimum reachable-node count for a round to serve.
func (p ReadPolicy) floor(total int) int {
	switch p.Mode {
	case ReadPartial:
		return 1
	case ReadQuorum:
		return p.Quorum
	default:
		return total
	}
}
