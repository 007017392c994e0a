package aot

import (
	"bufio"
	"errors"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"
)

// These tests exercise the hard-deadline watchdog: a runner that wedges
// before or during a protocol exchange is killed (SIGTERM, escalating to
// SIGKILL) and the exchange reports a typed *TimeoutError instead of
// hanging the cell forever.

// TestSpawnDeadlineKillsSilentRunner: a "runner" that never writes its
// hello frame (cat blocks reading stdin) is killed at the spawn deadline
// and reported as a hello timeout.
func TestSpawnDeadlineKillsSilentRunner(t *testing.T) {
	bin, err := exec.LookPath("cat")
	if err != nil {
		t.Skip("no cat binary on PATH")
	}
	start := time.Now()
	_, err = SpawnWithDeadline(bin, nil, 100*time.Millisecond)
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *TimeoutError, got %v", err)
	}
	if te.Op != "hello" {
		t.Errorf("TimeoutError.Op = %q, want hello", te.Op)
	}
	if te.Timeout != 100*time.Millisecond {
		t.Errorf("TimeoutError.Timeout = %v, want 100ms", te.Timeout)
	}
	// cat dies to SIGTERM immediately: no grace period should elapse.
	if elapsed > 2*time.Second {
		t.Errorf("spawn took %v; the deadline kill should unblock promptly", elapsed)
	}
}

// wedgedRunner starts sh running script with the protocol pipes wired up
// like Spawn does, returning a Runner the watchdog can kill.
func wedgedRunner(t *testing.T, script string, hard, grace time.Duration) *Runner {
	t.Helper()
	cmd := exec.Command("/bin/sh", "-c", script)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout),
		hardTimeout: hard, killGrace: grace, timedOut: new(atomic.Bool)}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.kill)
	return r
}

// TestWatchTermKillsCooperativeProcess: a busy-looping process that honors
// SIGTERM dies at the first escalation step; the blocked read unblocks and
// surfaces a *TimeoutError naming the operation.
func TestWatchTermKillsCooperativeProcess(t *testing.T) {
	r := wedgedRunner(t, "while :; do :; done", 100*time.Millisecond, 10*time.Second)
	start := time.Now()
	err := r.watch("run", func() error {
		_, ferr := r.readFrame()
		return ferr
	})
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *TimeoutError, got %v", err)
	}
	if te.Op != "run" {
		t.Errorf("TimeoutError.Op = %q, want run", te.Op)
	}
	if !r.broken {
		t.Error("a timed-out runner must be marked broken")
	}
	// SIGTERM killed it: well before the 10s SIGKILL grace.
	if elapsed > 5*time.Second {
		t.Errorf("exchange took %v; SIGTERM should have unblocked it at ~100ms", elapsed)
	}
}

// TestWatchEscalatesToSigkill: a process that traps (ignores) SIGTERM only
// dies to the SIGKILL escalation after the grace period — the watchdog's
// guarantee holds even against a runner that refuses to die politely.
func TestWatchEscalatesToSigkill(t *testing.T) {
	// The trap must be installed in the process holding the stdout pipe, and
	// the busy loop must use only shell builtins (a child process would
	// inherit the pipe and keep it open past the parent's death).
	r := wedgedRunner(t, "trap '' TERM; while :; do :; done",
		100*time.Millisecond, 300*time.Millisecond)
	start := time.Now()
	err := r.watch("run", func() error {
		_, ferr := r.readFrame()
		return ferr
	})
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want *TimeoutError, got %v", err)
	}
	// The read can only have unblocked after the SIGKILL at deadline+grace:
	// surviving SIGTERM proves the escalation fired.
	if elapsed < 400*time.Millisecond {
		t.Errorf("exchange unblocked after %v, before the %v SIGKILL point — "+
			"the process should have survived SIGTERM", elapsed, 400*time.Millisecond)
	}
	if elapsed > 10*time.Second {
		t.Errorf("exchange took %v; SIGKILL should have unblocked it shortly after 400ms", elapsed)
	}
}

// TestWatchDisabledPassesThrough: deadline 0 leaves the exchange unbounded
// and error-transparent (the pre-watchdog behavior).
func TestWatchDisabledPassesThrough(t *testing.T) {
	r := &Runner{}
	sentinel := errors.New("sentinel")
	if err := r.watch("run", func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("disabled watchdog should pass errors through, got %v", err)
	}
	if r.broken {
		t.Error("a non-timeout error under a disabled watchdog must not mark the runner broken")
	}
}

// TestWatchSuccessUnderDeadline: an exchange that completes in time is
// unaffected by the armed watchdog.
func TestWatchSuccessUnderDeadline(t *testing.T) {
	r := wedgedRunner(t, "sleep 5", 10*time.Second, time.Second)
	if err := r.watch("init", func() error { return nil }); err != nil {
		t.Errorf("fast exchange under deadline: %v", err)
	}
	if r.broken {
		t.Error("a successful exchange must not mark the runner broken")
	}
}
