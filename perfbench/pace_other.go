//go:build !linux

package main

import "time"

// pacer holds a worker until a request's due time.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// wait blocks until the instant due (ns since epoch).
func (p *pacer) wait(due int64) {
	if d := time.Duration(due - now()); d > 0 {
		time.Sleep(d)
	}
}

func (p *pacer) close() {}
