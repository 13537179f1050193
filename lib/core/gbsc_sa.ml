module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Tstats = Trg_trace.Tstats
module Trg = Trg_profile.Trg
module Tuple_db = Trg_profile.Tuple_db
module Popularity = Trg_profile.Popularity
module Config = Trg_cache.Config

type profile = {
  config : Gbsc.config;
  popularity : Popularity.t;
  chunks : Chunk.t;
  select : Trg.built;
  tuples : Tuple_db.built;
}

let build ?max_between ~arity (config : Gbsc.config) program trace =
  let tstats = Tstats.compute ~n_procs:(Program.n_procs program) trace in
  let popularity =
    Popularity.select ~coverage:config.coverage ~min_refs:config.min_refs program
      tstats
  in
  let keep = Popularity.keep popularity in
  let chunks = Chunk.make ~chunk_size:config.chunk_size program in
  let select =
    Trg.build_select ~keep ~capacity_bytes:config.q_capacity program trace
  in
  let tuples =
    Tuple_db.build_place ~keep ~arity ~capacity_bytes:config.q_capacity
      ?max_between chunks trace
  in
  { config; popularity; chunks; select; tuples }

let profile ?(max_between = 64) config program trace =
  build ~max_between ~arity:2 config program trace

let model p = Cost.Sa_tuples { chunks = p.chunks; db = p.tuples.Tuple_db.db }

let place ?decisions program (p : profile) =
  Gbsc.place_with ~algo:"gbsc-sa" ?decisions p.config program
    ~select:p.select.Trg.graph ~model:(model p)

let run ?max_between config program trace =
  place program (profile ?max_between config program trace)

type tuple_profile = { sa : profile; tplace : Trg.built }

let profile_tuples ?max_between ?arity (config : Gbsc.config) program trace =
  let arity =
    match arity with Some a -> a | None -> config.Gbsc.cache.Config.assoc
  in
  let sa = build ?max_between ~arity config program trace in
  let tplace =
    Trg.build_place ~keep:(Popularity.keep sa.popularity)
      ~capacity_bytes:config.q_capacity sa.chunks trace
  in
  { sa; tplace }

(* The tuple database alone is sparse (high arity, capped enumeration);
   regularise it with a small share of the dense direct-mapped TRG cost so
   uninformed offsets still avoid gratuitous overlap. *)
let place_tuples ?(trg_share = 0.25) program { sa; tplace } =
  Gbsc.place_with ~algo:"gbsc-sa" sa.config program ~select:sa.select.Trg.graph
    ~model:
      (Cost.Blend
         [
           (model sa, 1.0);
           (Cost.Trg_chunks { chunks = sa.chunks; trg = tplace.Trg.graph }, trg_share);
         ])

let run_tuples ?max_between ?arity config program trace =
  place_tuples program (profile_tuples ?max_between ?arity config program trace)
