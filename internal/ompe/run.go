package ompe

import (
	"io"
	"math/big"

	"repro/internal/field"
)

// Result carries the outcome of a completed in-memory execution.
type Result struct {
	// Value is amp·P(α) + shift in the field.
	Value *big.Int
	// Amplifier is the amplifier the sender used.
	Amplifier *big.Int
}

// Run executes a complete OMPE exchange in memory: useful for tests,
// examples, and single-process experiments. Distributed deployments drive
// the Sender and Receiver state machines over a transport instead.
func Run(params Params, eval Evaluator, input field.Vec, rng io.Reader, opts ...SenderOption) (*Result, error) {
	sender, err := NewSender(params, eval, opts...)
	if err != nil {
		return nil, err
	}
	receiver, req, err := NewReceiver(params, input, rng)
	if err != nil {
		return nil, err
	}
	setup, err := sender.HandleRequest(req, rng)
	if err != nil {
		return nil, err
	}
	choice, err := receiver.HandleSetup(setup, rng)
	if err != nil {
		return nil, err
	}
	tr, err := sender.HandleChoice(choice, rng)
	if err != nil {
		return nil, err
	}
	value, err := receiver.Finish(tr)
	if err != nil {
		return nil, err
	}
	return &Result{Value: value, Amplifier: new(big.Int).Set(sender.amplifier)}, nil
}

// EvaluatorFunc adapts a closure with a fixed arity into an Evaluator.
func EvaluatorFunc(numVars int, fn func(field.Vec) (*big.Int, error)) Evaluator {
	return &funcEvaluator{n: numVars, fn: fn}
}

type funcEvaluator struct {
	n  int
	fn func(field.Vec) (*big.Int, error)
}

func (e *funcEvaluator) NumVars() int { return e.n }

func (e *funcEvaluator) Eval(x field.Vec) (*big.Int, error) { return e.fn(x) }
