(** The routing tier that turns N bccd shards into one service.

    Rendezvous hashing ({!Ring}) pins each workload to an owning shard,
    so its journal, curve artifacts and request coalescing never split.
    Request classes ({!Bcc_server.Request.placement}) get different
    policies:

    - {b Stateless compute} ([POST /solve], [/gmc3], [/ecc], and
      [GET /instances]): the solver is deterministic, so any shard
      returns identical bytes.  Routed to the key's owner for curve
      cache locality, failed over along the ring order when shards are
      down, and (for GETs) hedged onto the first backup when the
      primary is slow.
    - {b Store reads} ([GET /workloads/:name], [.../solution]): state is
      single-homed on the owner; a down owner answers 503 +
      [retry-after] rather than a misleading 404 from a backup.
    - {b Mutations} ([PUT /workloads/:name], [POST .../delta],
      [.../solve]): owner only, never retried past the first write and
      never failed over — replaying or re-homing a mutation could
      double-apply a delta or fork the journal.
    - {b Scatter} ([GET /workloads]): the union of every up shard's
      listing.
    - Everything else ([/healthz], [/metrics], [/debug/*], ...) is
      served locally by the node that received it.

    Shard health is a per-shard up/down state machine fed by a
    background [/healthz] probe loop and by forward-time failures.
    Every forwarding attempt passes the {!fault_point} fault point so
    failover is testable without killing processes.  Forwards are
    admission-controlled per tenant ({!Bcc_sched.Admission}); a tenant
    over its in-flight budget gets 429 + [retry-after].

    Metrics (into the server registry): [bcc_cluster_forwards_total]
    {[shard],[outcome]}, [bcc_cluster_hedges_total],
    [bcc_cluster_rejected_total]{[reason]}, and the
    [bcc_cluster_shard_up]{[shard]} gauge. *)

type t

val fault_point : string
(** ["cluster.forward"] — armed via [BCC_FAULTS], a throw stands in for
    a dead or unreachable shard on each forwarding attempt. *)

val create :
  ?hedge_delay_s:float ->
  ?down_after:int ->
  ?probe_interval_s:float ->
  ?tenant_depth:int ->
  ?tenant_weights:(string * int) list ->
  ?client:Client.t ->
  metrics:Bcc_server.Metrics.t ->
  Ring.t ->
  t
(** Defaults: 50 ms hedge delay, down after 2 consecutive probe
    failures, 0.5 s probe interval, 64 in-flight forwards per tenant
    weight unit.  Probing does not start until {!start_probes}. *)

val start_probes : t -> unit
(** Start the background health-probe thread (idempotent). *)

val stop : t -> unit
(** Stop probing and close pooled connections. *)

val ring : t -> Ring.t
val client : t -> Client.t

val admission : t -> Bcc_sched.Admission.t
(** The per-tenant in-flight limiter behind {!forward} (tests). *)

val forward : t -> Bcc_server.Http.request -> Bcc_server.Http.response option
(** The {!Bcc_server.Server} [forward] hook: [None] for requests the
    receiving node should handle locally, [Some resp] for requests
    routed to (an)other shard(s).  Routed responses carry an
    [x-bcc-shard] header naming the shard that answered. *)

val is_up : t -> Ring.node -> bool
(** Current health verdict for [node] (tests and /debug). *)

val probe : t -> Ring.node -> unit
(** One synchronous health probe of [node] (tests; the background loop
    calls this). *)
