(** Heaviest-k-Subgraph (HkS) heuristics, blow-up aware.

    The paper's [A^QK_H] replaces every node [v] of cost [c(v)] by
    [c(v)] unit-cost copies and runs an HkS heuristic on the blown-up
    graph (Section 4.1, "Solving HkS on a blown-up graph").  This module
    never materializes the blow-up: an {!instance} carries an integer
    multiplicity per node and all solvers reason about how many copies
    of each node to select.  With all multiplicities 1 this is plain
    DkS/HkS.

    The per-copy edge weight between copies of [u] and [v] is
    [w(u,v) / (mult(u) * mult(v))], so selecting all copies of both
    endpoints recovers exactly [w(u,v)] — the invariant the paper's
    reduction relies on.

    The portfolio in {!solve} — greedy peeling, greedy addition,
    spectral rounding (Papailiopoulos-style) and local swap search —
    is this library's substitute for the closed-source convex heuristic
    of Konar & Sidiropoulos [41]; the paper treats that component as a
    black box with empirically near-optimal quality, and Section 7 notes
    alternative HkS heuristics can be plugged in. *)

type instance

val make : ?mult:int array -> Bcc_graph.Graph.t -> k:int -> instance
(** [make g ~k] builds an instance asking for [k] copies.  [mult]
    defaults to all ones; entries must be positive.
    @raise Invalid_argument on a non-positive multiplicity. *)

val graph : instance -> Bcc_graph.Graph.t
val multiplicities : instance -> int array
val k : instance -> int
val total_copies : instance -> int

type selection = int array
(** [sel.(v)] = number of copies of node [v] selected. *)

val copies : selection -> int
(** Total selected copies. *)

val value : instance -> selection -> float
(** Induced weight: [sum over edges of w * (t_u/c_u) * (t_v/c_v)]. *)

val feasible : instance -> selection -> bool
(** Within multiplicities and at most [k] copies. *)

val peel : instance -> selection
(** Charikar-style greedy peeling: start from everything, repeatedly
    drop the copy with the smallest per-copy weighted degree until [k]
    copies remain.  Equal degrees drop the lower node id first.  Copies
    of one node are dropped in a batch: a node's own degree does not
    change as its copies go, so it stays the minimum until a
    neighbour's falling degree passes it, and the result equals one
    heap pop per copy, bit for bit. *)

val greedy_add : instance -> selection
(** Seed with the densest edge, then repeatedly add the copy with the
    largest marginal gain until [k] copies are selected. *)

val spectral : ?iters:int -> instance -> selection
(** Power iteration for the leading eigenvector of the (cost-normalized)
    weight matrix, then fill the [k] copies in eigenvector order —
    the low-rank rounding of [53]. *)

val local_search : ?max_rounds:int -> instance -> selection -> selection
(** Hill climbing by copy swaps: while some non-selected copy gains more
    than the cheapest selected copy loses, swap them.  Never decreases
    {!value}. *)

val solve : instance -> selection
(** Best of {!peel}, {!greedy_add} and {!spectral}, each polished by
    {!local_search}. *)
