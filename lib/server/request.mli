(** The one decoding of an {!Http.request} that the cluster router, the
    batch scheduler and the endpoint handlers share, so they cannot
    disagree about what a request asks for.  A JSON body is parsed at
    most once, and each hash is taken on first use, so a node computes
    only the one it needs.

    {b Tenant}: the first non-empty of the [?tenant=] query parameter,
    the [x-bcc-tenant] header and a JSON body's ["tenant"] string, else
    ["default"].

    {b Timeout}, decoded for the solve routes only ([POST /solve],
    [/gmc3], [/ecc], [/workloads/:name/solve]): the [?timeout_ms=] query
    parameter, else a JSON body's numeric ["timeout_ms"], else the
    [X-Bcc-Deadline-Ms] header a router hop forwards.  A query or body
    value that is not a positive finite number is rejected with 400; a
    bad header is ignored.  It is a duration: the scheduler anchors its
    queue deadline at admission, the handler the solve's deadline when
    it starts. *)

type endpoint = Solve | Gmc3 | Ecc

type source =
  | Named of string  (** an instance preloaded with [--load] *)
  | Inline of { text : string; digest : string Lazy.t }
      (** the raw body or a JSON body's ["text"], and its hex MD5; force
          [digest] on the request's thread, before it can be scheduled *)

type route =
  | Compute of
      { endpoint : endpoint; source : source; budget : float option; target : float option }
      (** [?budget=]/[?target=] override the JSON body's fields; a
          negative or NaN budget is rejected with 400 *)
  | Workload_put of { name : string; budget : float option; source : Bcc_store.Store.source }
  | Workload_delta of { name : string; log : bool; body : string }
      (** [log]: [?format=log], the body is a raw log tail *)
  | Workload_solve of { name : string; cold : bool; incremental : bool }
  | Workload_info of string
  | Workload_solution of string
  | Workload_list
  | Healthz
  | Metrics
  | Instances
  | Debug_trace of int  (** [?last=N], default 512 *)
  | Debug_solves of string option  (** [?id=] *)
  | Debug_sched
  | Reject of int * string  (** answer this status with this error message *)

(** Where a cluster router sends the request.  It follows the method
    and path alone, so a request its shard will reject still goes to
    the shard that would serve it. *)
type placement =
  | Local  (** every node answers for itself *)
  | Stateless of string Lazy.t
      (** deterministic compute, any shard may serve; the ring key is
          ["n:"] and the instance name, else ["i:"] and the body's MD5 *)
  | Sticky_read of string  (** store read: the workload's owner only *)
  | Mutation of string  (** store write: the owner only, never failed over *)
  | Scatter  (** [GET /workloads]: the union over every up shard *)

type t = { route : route; tenant : string; timeout_ms : float option; placement : placement }

val decode : Http.request -> t

val endpoint_name : endpoint -> string
(** ["solve"], ["gmc3"] or ["ecc"]. *)
