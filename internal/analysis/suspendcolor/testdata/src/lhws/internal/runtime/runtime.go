// Package runtime is a fixture stand-in for lhws/internal/runtime: the
// suspension seeds are keyed by (package path, receiver, name), so these
// stubs carry the same identities as the real heavy-edge entry points.
package runtime

import "time"

// Ctx marks a parameter list as task code.
type Ctx struct{}

// Latency is a may-suspend seed.
func (c *Ctx) Latency(d time.Duration) {}

// WithTarget is deliberately NOT a may-suspend seed: it only stamps the
// latency target on the subtree and returns; no timer is armed and the
// task never leaves the worker.
func (c *Ctx) WithTarget(d time.Duration) (*Ctx, func()) { return c, func() {} }

// Future is the awaitable stub.
type Future struct{}

// Await is a may-suspend seed.
func (f *Future) Await(c *Ctx) (any, error) { return nil, nil }

// ExternalHandle mirrors the completion handle.
type ExternalHandle struct{}

// ExternalOp mirrors the runtime interface whose implementations run
// without the task's worker.
type ExternalOp interface {
	Arm(h ExternalHandle)
	Block(h ExternalHandle)
	CancelExternal(h ExternalHandle, cause error)
}
