package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestWorkerOptionsNeedTheirBackend: a worker option given without the
// backend it tunes is a usage error, not silently ignored. Every row that
// names its backend runs an unknown experiment, so mainE fails on that
// instead, before any batch starts.
func TestWorkerOptionsNeedTheirBackend(t *testing.T) {
	const unknown = "no-such-experiment"
	rows := []struct {
		name string
		opts options
		want string
	}{
		{"remote-ca", options{remoteCA: "ca.pem"}, "-remote-ca requires -remote"},
		{"remote-read-timeout", options{remoteRead: time.Second}, "-remote-read-timeout requires -remote"},
		{"worker-retry", options{workerRetry: true}, "-worker-retry requires -workers or -remote"},
		{"worker-retry-jobs", options{workerRetry: true, jobs: 4}, "-worker-retry requires -workers or -remote"},
		{"remote-read-timeout-workers", options{remoteRead: time.Second, workers: 2}, "-remote-read-timeout requires -remote"},
		{"remote-read-timeout-remote", options{remoteRead: time.Second, remote: "127.0.0.1:1", run: unknown}, unknown},
		{"worker-retry-workers", options{workerRetry: true, workers: 2, run: unknown}, unknown},
		{"worker-retry-remote", options{workerRetry: true, remote: "127.0.0.1:1", run: unknown}, unknown},
	}
	for _, row := range rows {
		err := mainE(context.Background(), row.opts)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: mainE error = %v, want one containing %q", row.name, err, row.want)
		}
	}
}
