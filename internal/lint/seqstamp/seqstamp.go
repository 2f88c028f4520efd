// Package seqstamp enforces the exactly-once sequencing contract
// (DESIGN.md §§7, 11): every data packet CREATED inside the overlay that
// flows toward the front-end must carry an origin sequence stamp before it
// reaches egress enqueue. Concretely:
//
//   - a sink that receives a transformation's outputs and forwards them
//     upward (the node's upSink.Emit) must stamp fresh outputs with
//     packet.MakeSeq(rank, ctr) — forwarded packets keep their origin Seq;
//   - every BackEnd method that emits upward must stamp via MakeSeq/WithSeq
//     itself or delegate to SendPacket, the single stamping chokepoint.
//
// Unstamped fresh packets are invisible to the replay-suppression machinery:
// after a recovery they are re-delivered as duplicates, breaking the
// delivery invariant the chaos harness checks dynamically. This analyzer
// catches the omission at compile time instead of at soak time.
//
// The check is per-function and syntactic: a function that both constructs
// (runs a transformation's Apply, or is an Emit method — the receiving end
// of one) and emits upward (sendAck, or send/sendCtx/sendNow through
// parentOut, or send through eg, or Send through parentLink) must mention
// MakeSeq or WithSeq. Downstream fan-out (sendDownstream, childOut)
// and front-end local delivery (st.deliver — the ack base case) are not
// sinks: downstream traffic carries no replay ring.
package seqstamp

import (
	"go/ast"

	"repro/internal/lint"
)

// Analyzer is the seqstamp invariant checker.
var Analyzer = &lint.Analyzer{
	Name: "seqstamp",
	Doc:  "fresh upward data packets must be Seq-stamped (MakeSeq/WithSeq) before egress enqueue",
	Run:  run,
}

// constructors mark a function as producing fresh packets: it calls one of
// these, or it is a method of this name, the Emitter side of the filter
// contract, which is handed the packets a transformation built.
var constructors = map[string]bool{
	"Apply": true,
	"Emit":  true,
}

// stampNames are the identifiers whose presence satisfies the contract.
var stampNames = map[string]bool{
	"MakeSeq": true,
	"WithSeq": true,
}

// funMentions reports whether the callee expression of call mentions any of
// the names (as an identifier or selector component) — this sees through
// chains like be.parentLink().Send where the receiver is itself a call.
func funMentions(call *ast.CallExpr, names map[string]bool) bool {
	found := false
	ast.Inspect(call.Fun, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			found = true
		}
		return true
	})
	return found
}

var upwardOwners = map[string]bool{"parentOut": true, "parentLink": true, "eg": true}

// upwardSink reports whether call emits toward the front-end.
func upwardSink(call *ast.CallExpr) bool {
	switch lint.CalleeName(call) {
	case "sendAck":
		return true
	case "send", "sendCtx", "sendNow", "Send":
		return funMentions(call, upwardOwners)
	}
	return false
}

// mentionsStamp reports whether the function body references MakeSeq or
// WithSeq anywhere.
func mentionsStamp(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && stampNames[id.Name] {
			found = true
		}
		return true
	})
	return found
}

func run(pass *lint.Pass) error {
	lint.FuncsOf(pass.Files, func(fd *ast.FuncDecl) {
		var sinks []*ast.CallExpr
		constructs := fd.Recv != nil && constructors[fd.Name.Name]
		delegates := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := lint.CalleeName(call)
			if constructors[name] {
				constructs = true
			}
			if name == "SendPacket" {
				delegates = true
			}
			if upwardSink(call) {
				sinks = append(sinks, call)
			}
			return true
		})
		if len(sinks) == 0 || mentionsStamp(fd.Body) {
			return
		}
		isBackEnd := lint.RecvTypeName(fd) == "BackEnd"
		switch {
		case constructs:
			pass.Reportf(sinks[0].Pos(), "%s transforms packets and emits them upward without a Seq stamp: fresh outputs need packet.MakeSeq (forwarded packets keep their origin Seq) or replay suppression will re-deliver them as duplicates", fd.Name.Name)
		case isBackEnd && !delegates:
			pass.Reportf(sinks[0].Pos(), "BackEnd.%s emits upward without stamping: stamp via packet.MakeSeq/WithSeq or delegate to SendPacket, the stamping chokepoint", fd.Name.Name)
		}
	})
	return nil
}
