(** Per-query cover enumeration and the cheapest-cover dynamic program.

    A query's residual (the properties not yet covered by the current
    selection) lives on at most 6 properties, so exact set-cover DP over
    bitmasks is constant-time per query.  These helpers back the IG1
    baseline ("the least costly set of classifiers that covers it, by
    checking all O(1) relevant sets"), the BCC(1)/BCC(2) decomposition,
    pruning's budget guard and the solver's ratio-greedy sweep.

    Candidates come from the instance's per-query subset index
    ({!Instance.subsets_begin}): no subset is built or hashed.  The
    residual target is the query's full mask less its covered mask,
    and a candidate's [bits] are its index mask restricted to that
    target. *)

type candidate = { id : int;  (** classifier id *) bits : int  (** residual positions it covers *) }

val candidates : Cover.t -> ?allowed:(int -> bool) -> int -> candidate list * int
(** [candidates state qi] returns the unselected finite-cost classifiers
    contained in query [qi] that cover at least one residual property,
    in descending order of their index mask, together with the residual
    target bitmask.  Selected classifiers never appear (their properties
    are already out of the residual). *)

val cheapest_cover : Cover.t -> ?allowed:(int -> bool) -> int -> (float * int list) option
(** Minimum-cost set of new classifiers completing query [qi]'s cover,
    by exact DP over residual bitmasks, as ascending ids.  Among
    equal-cost covers the DP keeps the first found, relaxing each mask
    through the candidates in {!candidates}' order.  [None] if the
    query is uncoverable (or already covered — there is nothing to
    buy). *)

val one_covers : candidate list -> target:int -> candidate list
(** Candidates that cover the whole residual alone — residual 1-covers
    (Section 4.2). *)

val two_covers : candidate list -> target:int -> (candidate * candidate) list
(** Pairs covering the residual together with neither side sufficient
    alone — residual 2-covers. *)
