(** A BCC problem instance ⟨Q, U, C, B⟩ (Section 2.1).

    Queries are property sets with utilities; the classifier universe
    [CL] is derived as the union of the (non-empty) power sets of all
    queries, with costs supplied by a cost oracle at construction time.
    Classifiers the oracle prices at [infinity] are "impractical to
    construct" and are omitted from the universe (as in Example 2.1's
    [C(XY) = ∞]).

    The instance also materializes two indexes that every solver and
    baseline in this library relies on: the per-query subset index —
    for every query, its finite-cost classifiers — and its inverse, the
    containment index — for every classifier, which queries contain
    it. *)

type t

val create :
  ?name:string ->
  ?names:Symtab.t ->
  budget:float ->
  queries:(Propset.t * float) array ->
  cost:(Propset.t -> float) ->
  unit ->
  t
(** Duplicate queries are merged (utilities summed in input order);
    empty queries are dropped.  This is {!derive} of the empty instance:
    there is one build, so a created and a derived instance with the
    same content are equal field for field.
    @raise Invalid_argument on a negative utility, negative cost or
    negative budget, or a query over 16 properties. *)

val derive :
  ?name:string ->
  t ->
  budget:float ->
  changes:(Propset.t * float option) list ->
  repriced:Propset.t list ->
  cost:(Propset.t -> float) ->
  t
(** [derive t ~budget ~changes ~repriced ~cost] is the instance
    {!create} would build from [t]'s queries and utilities with
    [changes] applied, under [budget] and [cost]: the same queries,
    classifier ids, costs and indexes, bit for bit.  [Some u] sets a
    query's utility, adding the query if [t] lacks it; [None] removes
    it.  A set listed twice keeps its last change; the empty set is
    ignored.  [name] defaults to [t]'s, and the symbol table is [t]'s.

    Precondition: [cost] prices every set outside [repriced] as [t]'s
    oracle did (strictly, every subset of [t]'s queries: the only sets
    [t] priced).  The build leans on it: a query [t] holds keeps its
    subset entries and their costs, re-pricing only its classifiers in
    [repriced] and listing its subsets again only when a re-priced set
    that was infinite turns finite inside it; new queries consult
    [cost] as {!create} does.  Its work is linear in [t]'s index plus
    the subsets of the changed queries: it hashes no query it holds,
    sorts only [changes], and rehashes the classifiers only when their
    numbering moved.
    @raise Invalid_argument as {!create} does. *)

val name : t -> string
val names : t -> Symtab.t option
val budget : t -> float
val with_budget : t -> float -> t
(** Same instance under a different budget (O(1), structure shared). *)

(** {1 Queries} *)

val num_queries : t -> int
val query : t -> int -> Propset.t
val utility : t -> int -> float
val total_utility : t -> float
val max_length : t -> int
(** The length parameter [l]. *)

val num_properties : t -> int
(** [n = |P|], the number of distinct properties. *)

(** {1 Classifiers} *)

val num_classifiers : t -> int
val classifier : t -> int -> Propset.t
val cost : t -> int -> float
val classifier_id : t -> Propset.t -> int option
val cost_of : t -> Propset.t -> float
(** [infinity] when the classifier is not in the universe. *)

val queries_containing : t -> int -> int array
(** Query ids, ascending, whose property set contains the classifier —
    the classifiers relevant to covering those queries. *)

(** {1 Per-query subset index}

    A query's relevant classifiers [CL_q] (Section 2.1) are its
    finite-cost subsets.  They are listed once, at construction, in one
    flat array: query [qi]'s entries sit at positions
    [subsets_begin t qi] to [subsets_end t qi - 1], in ascending order
    of their mask.  An entry's mask marks the query's sorted positions
    the classifier holds (bit [i] is the [i]-th smallest property), the
    same bitmask {!Cover.mask} keeps, so a cheapest-cover scan reads ids
    and masks without building or hashing a subset.  Each entry packs
    [(id lsl 16) lor mask]; the 16 mask bits suffice because
    {!create} rejects a query over 16 properties. *)

val subsets_begin : t -> int -> int
val subsets_end : t -> int -> int
val subset_id : t -> int -> int
(** Classifier id of the entry at a position of the index. *)

val subset_mask : t -> int -> int
(** Non-zero position mask of the entry at a position of the index. *)

(** {1 Derived instances} *)

val restrict : t -> int list -> t
(** Sub-instance on the given query ids (deduplicated); classifier
    costs are inherited.  Used for residual problems, GMC3 iterations
    and brute-force comparisons on sub-domains. *)

val pp_summary : Format.formatter -> t -> unit
