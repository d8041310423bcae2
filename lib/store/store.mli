(** The workload store: named, versioned, durably persisted workloads
    with warm-started incremental re-solves.

    A {e workload} is the living object behind a BCC instance: a budget,
    a query→utility map and a classifier→cost map, advanced one {e
    epoch} at a time by delta batches ({!Bcc_store.Delta}) — the paper's
    search logs drift continuously (utilities are search counts,
    Section 6.1), so the instance a solve sees is always "the workload
    as of epoch [e]".  The materialized {!Bcc_core.Instance.t} is cached
    per epoch and derived from the previous epoch's through the sets its
    deltas touched ({!Bcc_core.Instance.derive}), equal field for field
    to a full rebuild; queries are ordered by {!Bcc_core.Propset.compare}
    so a replayed workload materializes bit-identically.

    {2 Persistence}

    With a [dir], every workload keeps a snapshot file ([<name>.snap],
    written atomically: temp + fsync + rename + directory fsync) and an
    append-only journal ([<name>.journal]) of {!Bcc_store.Codec}
    records, fsynced on every commit.  Startup replays snapshot +
    journal; a torn final append is truncated, not fatal.  When the
    journal outgrows [compact_bytes] it is folded into a fresh snapshot
    and truncated.  Without a [dir] the store is purely in-memory (same
    API, nothing survives the process).

    {2 Warm starts}

    [solve] seeds {!Bcc_core.Solver.solve_within} with the workload's
    last committed solution ({!Bcc_core.Solver.solve_within}'s [?warm]):
    the seed is re-validated against the current epoch's instance
    (vanished classifiers dropped, coverage recomputed) and banked as
    the initial incumbent, so a re-solve after a small delta races from
    a strong start instead of cold.  Solved solutions are committed to
    the journal, so a restarted store serves the same epoch/solution it
    had before the crash.

    {2 Incremental pipeline solves}

    [solve ~incremental:true] uses the staged {!Bcc_core.Pipeline}
    instead of the monolithic solver and keeps its per-component
    artifacts — fingerprint-keyed budget→utility curves with a
    property-name footprint — in a {!Bcc_sched.Curve_cache} (byte
    -bounded, shareable across workloads and across stores), persisted
    per workload next to the snapshot and invalidated by the deltas
    that touch them.  See {!create} and {!solve} for the contract.

    All mutating operations run under a per-workload lock (solves of
    distinct workloads proceed in parallel), carry {!Bcc_obs.Trace}
    spans, and poll the ambient {!Bcc_robust.Deadline}. *)

type t

type source =
  | Text of string
      (** the plain-text instance format of {!Bcc_data.Io}; classifiers
          absent from the text stay priced [infinity] across deltas *)
  | Log of string
      (** a raw search log ({!Bcc_data.Log_parser} line format); the
          classifier universe is priced by the deterministic skewed
          oracle {!Bcc_data.Log_parser.default_cost}, seeded by the
          workload name, so new queries introduced by later deltas get
          consistent costs *)

type info = {
  name : string;
  epoch : int;
  budget : float;
  num_queries : int;
  journal_bytes : int;
  solved_epoch : int option;  (** epoch of the last committed solution *)
  warm_ratio : float option;
      (** share of the last solve's utility already covered by its
          re-validated warm seed; [None] until a warm solve happens *)
}

type solved = {
  info : info;
  instance : Bcc_core.Instance.t;  (** the epoch the solve ran against *)
  solution : Bcc_core.Solution.t;
  solved_at : int;  (** epoch of [solution] *)
  degraded : bool;
  warm : bool;  (** a previous solution seeded this solve *)
  seed_utility : float;  (** utility of the re-validated seed; 0 when cold *)
  wall_s : float;
  components_total : int;
      (** pipeline components this solve staged; 0 on the classic path *)
  components_reused : int;
      (** components whose budget→utility curve was served from the
          artifact cache instead of recomputed *)
}

type error = [ `Not_found | `Bad of string ]

val create :
  ?dir:string -> ?compact_bytes:int -> ?curve_cache:Bcc_sched.Curve_cache.t -> unit -> t
(** Opens (and replays) the state directory, creating it if missing;
    [compact_bytes] (default 262144) caps the journal before compaction.
    [curve_cache] holds the incremental pipeline's curve artifacts;
    passing one shared cache lets equal-content components cross
    workloads (and stores).  Default: a fresh private cache, so an
    isolated store still solves cold the first time.
    @raise Failure on an unreadable/corrupt snapshot. *)

val close : t -> unit
(** Close journal descriptors; the store must not be used afterwards. *)

val valid_name : string -> bool
(** Workload names are file-system-safe: [A-Za-z0-9._-], non-empty, at
    most 128 chars, not starting with a dot. *)

val put : t -> name:string -> ?budget:float -> source -> (info, error) result
(** Create or replace the workload at epoch 0.  [budget] overrides the
    text's budget and is required wisdom for [Log] sources (default
    1000, as [bcc ingest]).  Replacing starts a fresh generation: a
    crash can serve the old workload or the new one, never a blend. *)

val delta : t -> name:string -> Delta.op list -> (info, error) result
(** Apply one batch atomically: the new epoch exists after the journal
    record is fsynced, or not at all. *)

val solve :
  t ->
  name:string ->
  ?options:Bcc_core.Solver.options ->
  ?cold:bool ->
  ?incremental:bool ->
  ?deadline:Bcc_robust.Deadline.t ->
  unit ->
  (solved, error) result
(** Solve the current epoch, warm-seeded by the last committed solution
    unless [cold] (or there is none); commits the result.  A degraded
    (deadline-cut) solution is still committed — it is feasible, and a
    later solve will warm-start from it.

    [incremental] routes the solve through {!Bcc_core.Pipeline}: the
    instance is staged into fingerprinted overlap-graph components whose
    budget→utility curves are cached in the store's curve cache, claimed
    per workload generation ([<name>.artifacts] on disk, atomically
    rewritten after each incremental solve and reloaded on replay;
    lookups are fingerprint-global, so an equal-content component of
    another workload serves the hit).  A {!delta} evicts only
    this workload's claims whose property footprint the batch touches, so the
    next incremental solve recomputes the dirty components and reuses
    the clean curves — and, because each curve is a pure function of
    component content (fingerprint-derived randomness, no warm
    seeding), the result is bit-identical to a cold pipeline solve at
    the same epoch.  Torn or corrupted artifacts (including the
    ["pipeline.artifact"] fault point) degrade to recomputation, never
    to a wrong answer.  Incremental solves ignore the warm seed and
    leave [warm_ratio] unchanged. *)

val solution : t -> string -> (solved, error) result
(** The last committed solution exactly as solved ([instance] and
    [solved_at] are the epoch it ran against, even if deltas have
    advanced the workload since); [info] reflects the workload now.
    [`Not_found] when the workload does not exist {e or} has never been
    solved. *)

val info : t -> string -> info option
val list : t -> info list
(** Sorted by name. *)

val epochs_committed : t -> int
(** Epoch-advancing commits (puts and deltas) since this store opened —
    the [bcc_store_epochs_total] counter. *)

val replay_seconds : t -> float
(** Wall time startup replay took (0 for a fresh/in-memory store). *)
