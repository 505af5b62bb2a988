package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"slate/internal/daemon"
	"slate/internal/ipc"
	"slate/internal/kern"
)

// DialRetry keeps trying through transient dial failures with backoff and
// succeeds once the daemon comes up.
func TestDialRetryRecoversFromTransientFailures(t *testing.T) {
	srv, dialLocal := daemon.NewLocal(2)
	attempts := 0
	dial := func() (net.Conn, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("connection refused")
		}
		return dialLocal(), nil
	}
	start := time.Now()
	c, err := DialRetry(dial, "retrier",
		RetryConfig{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		WithShared(srv.Registry, srv.Specs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if attempts != 3 {
		t.Fatalf("dialed %d times, want 3", attempts)
	}
	// Backoff actually waited between attempts.
	if time.Since(start) < time.Millisecond {
		t.Fatal("no backoff delay observed")
	}
	if c.Session() == 0 {
		t.Fatal("no session ID assigned")
	}
}

// When every attempt fails, the final error wraps ErrDaemonDown.
func TestDialRetryExhaustionIsTyped(t *testing.T) {
	dial := func() (net.Conn, error) { return nil, errors.New("connection refused") }
	_, err := DialRetry(dial, "hopeless",
		RetryConfig{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("exhausted retry = %v, want ErrDaemonDown", err)
	}
}

// A hung daemon cannot block a deadline-configured client forever: the call
// fails with ErrTimeout and the poisoned connection fails fast afterwards.
func TestPerOpDeadlineReturnsErrTimeout(t *testing.T) {
	a, b := net.Pipe()
	// A "daemon" that reads commands and never replies after the handshake.
	go func() {
		conn := ipc.NewConn(b)
		for {
			req, err := conn.RecvRequest()
			if err != nil {
				return
			}
			if req.Op == ipc.OpHello {
				if err := conn.SendReply(&ipc.Reply{Seq: req.Seq, Session: 1}); err != nil {
					return
				}
			}
			// Every other op: silence — the hung-Synchronize case.
		}
	}()
	c, err := New(a, "hung", WithTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = c.Synchronize()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("hung synchronize = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The connection is abandoned: later calls fail fast with ErrDaemonDown.
	if _, err := c.Malloc(16); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("call after timeout = %v, want ErrDaemonDown", err)
	}
}

// Device OOM surfaces as a typed sentinel through the full wire path.
func TestMallocOOMIsTyped(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	srv.Registry.Capacity = 1024
	c, err := Local(srv, dial, "oom")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Malloc(512); err != nil {
		t.Fatal(err)
	}
	_, err = c.Malloc(4096)
	if !errors.Is(err, ErrDeviceOOM) {
		t.Fatalf("over-capacity malloc = %v, want ErrDeviceOOM", err)
	}
	if errors.Is(err, ErrKernelPanic) || errors.Is(err, ErrTimeout) {
		t.Fatal("error matches unrelated sentinels")
	}
}

// A vanished daemon mid-session surfaces ErrDaemonDown, not a raw transport
// error string.
func TestVanishedDaemonIsTyped(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	conn := dial()
	c, err := New(conn, "orphaned", WithShared(srv.Registry, srv.Specs))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close() // daemon side gone
	if _, err := c.Malloc(16); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("call on dead transport = %v, want ErrDaemonDown", err)
	}
}

// A launch on a client whose transport already failed must not deposit its
// spec: the session teardown has purged the shared table, so nothing would
// ever take or purge it.
func TestLaunchOnDeadTransportLeavesNoSpec(t *testing.T) {
	srv, dial := daemon.NewLocal(2)
	conn := dial()
	c, err := New(conn, "orphaned", WithShared(srv.Registry, srv.Specs))
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := c.Malloc(16); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("call on dead transport = %v, want ErrDaemonDown", err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Sessions() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	spec := &kern.Spec{Name: "late", Grid: kern.D1(1), BlockDim: kern.D1(32),
		FLOPsPerBlock: 1, InstrPerBlock: 1, L2BytesPerBlock: 1, ComputeEff: 0.5, Exec: func(int) {}}
	if err := c.Launch(spec, 1); !errors.Is(err, ErrDaemonDown) {
		t.Fatalf("launch on dead transport = %v, want ErrDaemonDown", err)
	}
	if n := srv.Specs.Len(); n != 0 {
		t.Fatalf("spec table holds %d orphaned specs after the session's teardown", n)
	}
}
