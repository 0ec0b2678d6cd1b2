package analysis

import (
	"go/ast"
	"go/types"
)

// Lifecycle flags iterator leaks: a core-lifecycle value (any type
// whose method set has both Close() error and Err() error — the
// contract core.Lifecycle provides by embedding) that is produced and
// then dropped without Close, ownership transfer, or escape, and
// Next loops that never consult Err().
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc: "flags call sites where a returned iterator-lifecycle value (Close() error + Err() error) " +
		"is discarded or used without ever being closed, returned, or handed off, and for-loops over " +
		"Next() whose function never consults Err() — silently swallowing cancellation and early-Close errors",
	Run: runLifecycle,
}

func runLifecycle(pass *Pass) {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkLifecycleFunc(pass, fn)
			return true
		})
	}
}

func checkLifecycleFunc(pass *Pass, fn *ast.FuncDecl) {
	// funcLit bodies are visited as part of fn; that is deliberate — a
	// closure may legitimately close an iterator its enclosing function
	// produced, and vice versa.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				checkDroppedLifecycleResult(pass, call)
			}
		case *ast.AssignStmt:
			checkLifecycleAssign(pass, fn, n)
		case *ast.ForStmt:
			checkNextLoop(pass, fn, n)
		}
		return true
	})
}

// checkDroppedLifecycleResult flags a bare call statement that drops a
// lifecycle result on the floor.
func checkDroppedLifecycleResult(pass *Pass, call *ast.CallExpr) {
	for _, t := range callResultTypes(pass, call) {
		if isLifecycleType(t) {
			pass.Reportf(call.Pos(), "result of type %s is dropped without Close: the enumeration is never ended and its error state is lost; assign it and Close it (directly or deferred) or annotate //anykvet:allow lifecycle -- <reason>", types.TypeString(t, types.RelativeTo(pass.Pkg)))
			return
		}
	}
}

// checkLifecycleAssign inspects `x, err := produce(...)` and flags x
// when it is a lifecycle value that is then used only locally (Next /
// Value / Err) but never closed, returned, stored, or passed on.
func checkLifecycleAssign(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	results := callResultTypes(pass, call)
	if len(results) != len(as.Lhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !isLifecycleType(results[i]) {
			continue
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // field/index destination: stored, owner elsewhere
		}
		if id.Name == "_" {
			pass.Reportf(as.Pos(), "lifecycle value of type %s is assigned to _ without Close: the enumeration is never ended; close it or annotate //anykvet:allow lifecycle -- <reason>", types.TypeString(results[i], types.RelativeTo(pass.Pkg)))
			continue
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			continue
		}
		if !lifecycleDischarged(pass, fn, as, obj) {
			pass.Reportf(as.Pos(), "iterator %q (type %s) escapes %s without a Close: close it (directly or deferred), return it, or annotate //anykvet:allow lifecycle -- <reason>", id.Name, types.TypeString(results[i], types.RelativeTo(pass.Pkg)), fn.Name.Name)
		}
	}
}

// lifecycleDischarged reports whether obj's Close obligation is
// discharged somewhere in fn after the assignment: a Close call on it,
// a return of it, an assignment of it into another variable, field, or
// index (ownership transfer), or its use as a call argument (handed
// off).
func lifecycleDischarged(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt, obj types.Object) bool {
	discharged := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if discharged || n == nil || n.Pos() < as.End() {
			return !discharged
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if recv, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(recv) == obj && sel.Sel.Name == "Close" {
					discharged = true
					return false
				}
			}
			for _, arg := range n.Args {
				if usesIdentObj(pass, arg, obj) {
					discharged = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesIdentObj(pass, res, obj) {
					discharged = true
					return false
				}
			}
		case *ast.AssignStmt:
			if n == as {
				return true
			}
			for _, rhs := range n.Rhs {
				// A method call on the iterator (it.Next(), it.Err())
				// is consumption, not ownership transfer — only storing
				// the value itself counts.
				if storesIdentObj(pass, rhs, obj) {
					discharged = true
					return false
				}
			}
			for _, lhs := range n.Lhs {
				// Re-assignment through a field/index stores it.
				if _, isIdent := lhs.(*ast.Ident); !isIdent && usesIdentObj(pass, lhs, obj) {
					discharged = true
					return false
				}
			}
		case *ast.CompositeLit:
			if usesIdentObj(pass, n, obj) {
				discharged = true
				return false
			}
		}
		return true
	})
	return discharged
}

// checkNextLoop flags `for it.Next() { … }` when the surrounding
// function never consults it.Err(): exhaustion, cancellation, and
// early Close all end the loop identically, so skipping Err silently
// turns an interrupted enumeration into a seemingly complete one.
func checkNextLoop(pass *Pass, fn *ast.FuncDecl, loop *ast.ForStmt) {
	if loop.Cond == nil {
		return
	}
	var recvObj types.Object
	var recvName string
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Next" || len(call.Args) != 0 {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if t := pass.TypeOf(sel.X); isLifecycleType(t) {
			recvObj = pass.ObjectOf(recv)
			recvName = recv.Name
		}
		return true
	})
	if recvObj == nil {
		return
	}
	errConsulted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Err" {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(recv) == recvObj {
			errConsulted = true
			return false
		}
		return true
	})
	// Handing the iterator onward after the loop also discharges the
	// obligation: the new owner is responsible for Err.
	if !errConsulted && !identEscapesAfter(pass, fn, loop, recvObj) {
		pass.Reportf(loop.Pos(), "loop over %s.Next() but %s never consults %s.Err(): cancellation and early Close would end the loop looking like clean exhaustion; check Err after the loop or annotate //anykvet:allow lifecycle -- <reason>", recvName, fn.Name.Name, recvName)
	}
}

// storesIdentObj reports whether e stores obj's value somewhere —
// a direct alias, address-of, or composite literal — as opposed to
// merely calling a method on it. Call expressions are not descended
// into: argument hand-offs are credited by the CallExpr case.
func storesIdentObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isCall := n.(*ast.CallExpr); isCall {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// identEscapesAfter reports whether obj is returned or passed to a call
// after node — ownership moved on, so the local function is off the
// hook.
func identEscapesAfter(pass *Pass, fn *ast.FuncDecl, node ast.Node, obj types.Object) bool {
	escaped := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if escaped || n == nil || n.Pos() < node.End() {
			return !escaped
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesIdentObj(pass, res, obj) {
					escaped = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if usesIdentObj(pass, arg, obj) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// callResultTypes returns the result types of a call expression.
func callResultTypes(pass *Pass, call *ast.CallExpr) []types.Type {
	t := pass.TypeOf(call)
	if t == nil {
		return nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := 0; i < tuple.Len(); i++ {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	return []types.Type{t}
}
