(** Set-associative extension of the placement algorithm (Section 6).

    For an A-way associative cache a single intervening block cannot evict
    a resident block, so TRG_place is replaced by the database [D(p, S)]
    of the A-block sets [S] seen between consecutive occurrences of [p]
    (see {!Trg_profile.Tuple_db}), and [merge_nodes] charges an offset
    only when a block and every member of a recorded set map to the same
    cache set ({!Cost.Sa_tuples}).  Selection order still comes from the
    procedure-granularity TRG_select.  Alignments are taken modulo the
    number of {e sets}, which is the period of the cache mapping. *)

type profile = {
  config : Gbsc.config;
  popularity : Trg_profile.Popularity.t;
  chunks : Trg_program.Chunk.t;
  select : Trg_profile.Trg.built;  (** TRG_select, as in the base algorithm *)
  tuples : Trg_profile.Tuple_db.built;  (** D(p, S) at chunk granularity *)
}

val profile :
  ?max_between:int ->
  Gbsc.config ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  profile
(** The paper's 2-way algorithm: [D(p, {r, s})], the arity-2 database.
    The cache in [config] should be set-associative (assoc >= 2); the
    algorithm degrades gracefully to direct-mapped but {!Gbsc} is then the
    better choice.  [max_between] (default 64) bounds the pair
    enumeration (see {!Trg_profile.Tuple_db.build_stream}). *)

val place :
  ?decisions:Trg_obs.Journal.decision array ->
  Trg_program.Program.t ->
  profile ->
  Trg_program.Layout.t
(** Offers itself to an armed decision journal as ["gbsc-sa"];
    [decisions] replays a recorded sequence in forced-choice mode. *)

val run :
  ?max_between:int ->
  Gbsc.config ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  Trg_program.Layout.t

(** {2 Arbitrary associativity}

    [D(p, S)] with [|S|] equal to the cache's number of ways, blended with
    a share of the dense direct-mapped TRG_place cost. *)

type tuple_profile = {
  sa : profile;  (** the database at the requested arity *)
  tplace : Trg_profile.Trg.built;
      (** dense direct-mapped TRG, blended in at a small weight *)
}

val profile_tuples :
  ?max_between:int ->
  ?arity:int ->
  Gbsc.config ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  tuple_profile
(** [arity] defaults to the configured cache's associativity;
    [max_between] to {!Trg_profile.Tuple_db.build_stream}'s per-arity
    default. *)

val place_tuples :
  ?trg_share:float -> Trg_program.Program.t -> tuple_profile -> Trg_program.Layout.t
(** [trg_share] (default 0.25) weights the dense TRG_place cost blended
    with the tuple-database cost. *)

val run_tuples :
  ?max_between:int ->
  ?arity:int ->
  Gbsc.config ->
  Trg_program.Program.t ->
  Trg_trace.Trace.t ->
  Trg_program.Layout.t
