// Package repro is a from-scratch Go reproduction of "Tree-based Overlay
// Networks for Scalable Applications" (Arnold, Pack & Miller, IPPS 2006):
// an MRNet-style TBON — a tree of communication processes providing
// multicast, gather and in-network stateful-filter reduction between an
// application front-end and its back-ends — plus every algorithm and
// experiment the paper reports.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory), runnable examples under examples/, command-line tools under
// cmd/, and cmd/tbon-bench regenerates each of the paper's tables and
// figures. The benchmark that records performance is the separate module
// under bench/.
package repro
