(** Indexed binary min-heap over integer keys with float priorities.

    Keys are integers in [0, capacity).  Each key is present at most
    once; its priority can be updated in O(log n), which is what the
    greedy-peeling solvers need (degree updates as neighbours leave the
    graph).  Use [Heap.max_heap] semantics by negating priorities at the
    call site, or the dedicated [create ~max:true].

    Order: members pop by priority (lowest first, highest with
    [~max:true]), and equal priorities pop the smaller key first.  The
    pop sequence is therefore a function of the members and their
    priorities alone, whatever sequence of operations built the heap. *)

type t

val create : ?max:bool -> int -> t
(** [create capacity] makes an empty heap for keys [0 .. capacity-1].
    With [~max:true] the heap pops the highest priority first. *)

val size : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool

val priority : t -> int -> float
(** Current priority of a member key.  @raise Not_found otherwise. *)

val insert : t -> int -> float -> unit
(** @raise Invalid_argument if the key is already present or out of
    range. *)

val update : t -> int -> float -> unit
(** Set the priority of a present key (any direction), or insert it if
    absent. *)

val add_to : t -> int -> float -> unit
(** [add_to h k d] adds [d] to the priority of present key [k]; inserts
    with priority [d] if absent. *)

val peek : t -> (int * float) option
val pop : t -> (int * float) option
val remove : t -> int -> bool
(** [remove h k] removes [k] if present; returns whether it was. *)

val to_sorted_list : t -> (int * float) list
(** Non-destructive: members in pop order, i.e. by (priority, key). *)
