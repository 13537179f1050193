(** The temporal-relationship database for A-way associative caches
    (Section 6).

    For an A-way LRU cache, a resident block [p] is evicted only when [A]
    {e distinct} blocks mapping to its set intervene between consecutive
    references.  [D(p, S)] therefore records, for sets [S] of exactly
    [arity = A] distinct block ids, how often all of [S] appeared between
    two consecutive occurrences of [p].  Arity 2 is the paper's pair
    database [D(p, {r, s})]; higher arities follow directly.

    A database is built through a {!builder} — an int-keyed
    open-addressing table whose keys pack [p] and the ids into as few
    words as the largest id seen allows (one word when
    [(arity + 1) * bits] fits in 62 bits), widening as larger ids arrive
    — and then frozen into flat arrays in compressed-sparse-row form:
    the entries of [p] are contiguous, and every entry is a run of
    [arity] ascending ids plus one weight.  Entries are in
    {e canonical order}, ascending by [p] and then lexicographically by
    their id runs. *)

type t = private {
  arity : int;
  start : int array;
      (** The entries of block [p] are the indices
          [start.(p) .. start.(p + 1) - 1]; blocks at or beyond
          [Array.length start - 1] have none. *)
  ids : int array;
      (** [arity] ids per entry: entry [e]'s set is
          [ids.(e * arity) .. ids.(e * arity + arity - 1)], ascending. *)
  weights : float array;  (** One weight per entry. *)
}
(** A frozen database.  The arrays are shared and must be treated as
    read-only. *)

type built = { db : t; qstats : Qset.stats }

type builder

val create : arity:int -> builder
(** [arity >= 1]. *)

val add : builder -> p:int -> ids:int list -> float -> unit
(** Accumulates weight on [D(p, ids)].  [ids] must hold [arity] distinct
    non-negative ids, none equal to [p]; order is irrelevant.  [p]
    indexes the frozen [start] array, so it should be a dense id such as
    a chunk id. *)

val freeze : builder -> t
(** The entries added so far, in canonical order.  Adding more and
    freezing again afterwards is allowed. *)

val n_entries : t -> int

val count : t -> p:int -> ids:int list -> float
(** 0 when the association was never recorded. *)

val iter_p : t -> int -> (int list -> float -> unit) -> unit
(** [iter_p t p f] applies [f ids w] to every entry of [p] in canonical
    order; [ids] is ascending. *)

val iter : t -> (int -> int list -> float -> unit) -> unit
(** [iter t f] applies [f p ids w] to every entry in canonical order. *)

val map_weights : (float -> float) -> t -> t
(** The same keys with a fresh weight array, [f] applied to the entries
    one at a time in canonical order (so a random draw inside [f] is
    reproducible). *)

val build_stream :
  arity:int ->
  capacity_bytes:int ->
  size_of:(int -> int) ->
  ?max_between:int ->
  ((int -> unit) -> unit) ->
  built
(** Q-driven construction: each re-reference of [p] enumerates all
    [arity]-subsets of the (most recent [max_between]) intervening ids.
    Truncation bounds the binomial enumeration; long intervals are
    capacity-dominated and carry little placement signal.  [max_between]
    defaults to 24 for arity 2, 12 for arity 3 and 10 beyond. *)

val build_place :
  ?keep:(int -> bool) ->
  arity:int ->
  capacity_bytes:int ->
  ?max_between:int ->
  Trg_program.Chunk.t ->
  Trg_trace.Trace.t ->
  built
(** Chunk-granularity database from a trace; [keep] filters on the owning
    procedure. *)
