module Program = Trg_program.Program
module Chunk = Trg_program.Chunk
module Graph = Trg_profile.Graph
module Tuple_db = Trg_profile.Tuple_db

type model =
  | Trg_chunks of { chunks : Chunk.t; trg : Graph.t }
  | Wcg_procs of { wcg : Graph.t }
  | Sa_tuples of { chunks : Chunk.t; db : Tuple_db.t }
  | Blend of (model * float) list

let iter_lines ~line_size ~n_sets ~start_set ~bytes f =
  let lines = (bytes + line_size - 1) / line_size in
  let count = min lines n_sets in
  for j = 0 to count - 1 do
    f ((start_set + j) mod n_sets)
  done

(* Set index of the first line of chunk [c] when its owner starts at cache
   set [owner_set]. *)
let chunk_start_set chunks ~line_size ~n_sets ~owner_set c =
  let lines_per_chunk = Chunk.chunk_size chunks / line_size in
  (owner_set + (Chunk.index_in_proc chunks c * lines_per_chunk)) mod n_sets

let offsets_of_node node =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (p, off) -> Hashtbl.replace tbl p off) (Node.members node);
  tbl

let cost_trg_chunks chunks trg program ~line_size ~n_sets ~n1 ~n2 cost =
  ignore program;
  let in1 = offsets_of_node n1 in
  (* Visit each cross edge once, from the n2 side. *)
  List.iter
    (fun (p2, o2) ->
      let first2 = Chunk.first chunks p2 in
      for k2 = 0 to Chunk.n_chunks chunks p2 - 1 do
        let c2 = first2 + k2 in
        let s2 =
          chunk_start_set chunks ~line_size ~n_sets ~owner_set:o2 c2
        in
        List.iter
          (fun c1 ->
            let p1 = Chunk.owner chunks c1 in
            match Hashtbl.find_opt in1 p1 with
            | None -> ()
            | Some o1 ->
              let w = Graph.weight trg c1 c2 in
              let s1 =
                chunk_start_set chunks ~line_size ~n_sets ~owner_set:o1 c1
              in
              iter_lines ~line_size ~n_sets ~start_set:s1
                ~bytes:(Chunk.size_of chunks c1) (fun l1 ->
                  iter_lines ~line_size ~n_sets ~start_set:s2
                    ~bytes:(Chunk.size_of chunks c2) (fun l2 ->
                      let i = (l1 - l2 + n_sets) mod n_sets in
                      cost.(i) <- cost.(i) +. w)))
          (Graph.neighbors trg c2)
      done)
    (Node.members n2)

let cost_wcg_procs wcg program ~line_size ~n_sets ~n1 ~n2 cost =
  let in1 = offsets_of_node n1 in
  List.iter
    (fun (p2, o2) ->
      List.iter
        (fun p1 ->
          match Hashtbl.find_opt in1 p1 with
          | None -> ()
          | Some o1 ->
            let w = Graph.weight wcg p1 p2 in
            iter_lines ~line_size ~n_sets ~start_set:o1
              ~bytes:(Program.size program p1) (fun l1 ->
                iter_lines ~line_size ~n_sets ~start_set:o2
                  ~bytes:(Program.size program p2) (fun l2 ->
                    let i = (l1 - l2 + n_sets) mod n_sets in
                    cost.(i) <- cost.(i) +. w)))
        (Graph.neighbors wcg p2))
    (Node.members n2)

(* Intersects the [k] disjoint circular arcs [(s.(j), l.(j))] with the arc
   of [la] sets from [a], on a circle of [n] sets, through the [ts]/[tl]
   scratch; returns the new count.  Relative to a piece's start, the arc
   covers [d, d + la) and, when it wraps past the piece's origin, also
   [0, d + la - n); each of those meets the piece [0, lj) in at most one
   run.  Since every piece is a maximal run, the result has at most one
   piece more than its input. *)
let intersect_arc ~n s l k ts tl a la =
  if la >= n then k
  else begin
    let m = ref 0 in
    for j = 0 to k - 1 do
      let sj = s.(j) and lj = l.(j) in
      if lj >= n then begin
        ts.(!m) <- a;
        tl.(!m) <- la;
        incr m
      end
      else begin
        let d = (a - sj + n) mod n in
        if d < lj then begin
          ts.(!m) <- a;
          tl.(!m) <- min (lj - d) la;
          incr m
        end;
        if d + la > n then begin
          ts.(!m) <- sj;
          tl.(!m) <- min lj (d + la - n);
          incr m
        end
      end
    done;
    Array.blit ts 0 s 0 !m;
    Array.blit tl 0 l 0 !m;
    !m
  end

(* Set-associative tuple cost: D(p, S) is charged at offset i when p and
   every member of S map to one set.  The members in n1 (fixed) must
   share a set among themselves, likewise those in n2 (moving); every
   (fixed set, moving set) combination then determines one offset.
   Beyond the paper's "p against all tuples of the other node", tuples
   with members on both sides are charged too.

   A block's sets form one circular arc, so each side's common sets are
   the intersection of its members' arcs: a few disjoint arcs.  The
   cross-correlation of a fixed arc with a moving arc is the trapezoid
   {!seed_incr} charges, i.e. four spikes in the second difference;
   spikes of every tuple accumulate in one linear buffer that is
   integrated once per query.  Integral weights make every step exact, so
   the array is bit-identical to enumerating the set combinations.  A
   parallel integer count of covering trapezoids keeps offsets no tuple
   reaches at exactly zero for any weights, so rounding residue from
   non-integral (perturbed) weights cannot break the zero ties that
   {!best_offset_packed} resolves. *)
let cost_sa_tuples chunks (db : Tuple_db.t) ~line_size ~n_sets ~n1 ~n2 cost =
  let n = n_sets and arity = db.Tuple_db.arity in
  let start = db.Tuple_db.start and ids = db.Tuple_db.ids in
  let weights = db.Tuple_db.weights in
  (* [loc.(c)]: chunk [c]'s first set, plus [n] when it sits in the moving
     node; -1 when its owner is in neither node.  [len.(c)]: its sets. *)
  let loc = Array.make (Chunk.total chunks) (-1) in
  let len = Array.make (Chunk.total chunks) 0 in
  let locate node side =
    List.iter
      (fun (p, o) ->
        let first = Chunk.first chunks p in
        for c = first to first + Chunk.n_chunks chunks p - 1 do
          loc.(c) <- side + chunk_start_set chunks ~line_size ~n_sets ~owner_set:o c;
          len.(c) <- min ((Chunk.size_of chunks c + line_size - 1) / line_size) n
        done)
      (Node.members node)
  in
  locate n2 n;
  locate n1 0;
  let cap = 2 * (arity + 1) in
  let fs = Array.make cap 0 and fl = Array.make cap 0 in
  let ms = Array.make cap 0 and ml = Array.make cap 0 in
  let ts = Array.make cap 0 and tl = Array.make cap 0 in
  let dd = Array.make (3 * n) 0. and cover = Array.make (3 * n) 0 in
  let charge_chunk c =
    let lo = if c + 1 < Array.length start then start.(c) else 0 in
    let hi = if c + 1 < Array.length start then start.(c + 1) else 0 in
    for e = lo to hi - 1 do
      (* Fold p and each member into its side's arc intersection; -1
         counts mean "no arc yet", 0 an empty intersection. *)
      let nf = ref (-1) and nm = ref (-1) and ok = ref true and j = ref 0 in
      while !ok && !j <= arity do
        let m = if !j = 0 then c else ids.((e * arity) + !j - 1) in
        let at = loc.(m) in
        if at < 0 then ok := false
        else if at >= n then begin
          if !nm < 0 then begin
            ms.(0) <- at - n;
            ml.(0) <- len.(m);
            nm := 1
          end
          else nm := intersect_arc ~n ms ml !nm ts tl (at - n) len.(m);
          if !nm = 0 then ok := false
        end
        else begin
          if !nf < 0 then begin
            fs.(0) <- at;
            fl.(0) <- len.(m);
            nf := 1
          end
          else nf := intersect_arc ~n fs fl !nf ts tl at len.(m);
          if !nf = 0 then ok := false
        end;
        incr j
      done;
      if !ok && !nf > 0 && !nm > 0 then begin
        let w = weights.(e) in
        for a = 0 to !nf - 1 do
          for b = 0 to !nm - 1 do
            let la = fl.(a) and lb = ml.(b) in
            let base = (fs.(a) - ms.(b) - (lb - 1) + (2 * n)) mod n in
            dd.(base) <- dd.(base) +. w;
            dd.(base + la) <- dd.(base + la) -. w;
            dd.(base + lb) <- dd.(base + lb) -. w;
            dd.(base + la + lb) <- dd.(base + la + lb) +. w;
            cover.(base) <- cover.(base) + 1;
            cover.(base + la) <- cover.(base + la) - 1;
            cover.(base + lb) <- cover.(base + lb) - 1;
            cover.(base + la + lb) <- cover.(base + la + lb) + 1
          done
        done
      end
    done
  in
  (* Visit p on both sides; its tuple members are located wherever they
     live.  A tuple entirely within one node charges nothing. *)
  List.iter
    (fun (p, _) ->
      let first = Chunk.first chunks p in
      for c = first to first + Chunk.n_chunks chunks p - 1 do
        charge_chunk c
      done)
    (Node.members n1 @ Node.members n2);
  let run1 = ref 0. and run2 = ref 0. and cover1 = ref 0 and cover2 = ref 0 in
  for i = 0 to (3 * n) - 1 do
    run1 := !run1 +. dd.(i);
    run2 := !run2 +. !run1;
    cover1 := !cover1 + cover.(i);
    cover2 := !cover2 + !cover1;
    if !cover2 <> 0 then cost.(i mod n) <- cost.(i mod n) +. !run2
  done

let rec offsets_cost model program ~line_size ~n_sets ~n1 ~n2 =
  let cost = Array.make n_sets 0. in
  (match model with
  | Trg_chunks { chunks; trg } ->
    cost_trg_chunks chunks trg program ~line_size ~n_sets ~n1 ~n2 cost
  | Wcg_procs { wcg } -> cost_wcg_procs wcg program ~line_size ~n_sets ~n1 ~n2 cost
  | Sa_tuples { chunks; db } -> cost_sa_tuples chunks db ~line_size ~n_sets ~n1 ~n2 cost
  | Blend parts ->
    (* Sub-model magnitudes are incommensurable (tuple counts vs edge
       weights), so each sub-cost is normalised to unit mass before
       weighting: the blend weights express relative influence. *)
    List.iter
      (fun (sub, weight) ->
        let sub_cost = offsets_cost sub program ~line_size ~n_sets ~n1 ~n2 in
        let total = Array.fold_left ( +. ) 0. sub_cost in
        if total > 0. then
          Array.iteri
            (fun i c -> cost.(i) <- cost.(i) +. (weight *. c /. total))
            sub_cost)
      parts);
  cost

(* --- cost engines ----------------------------------------------------- *)

type engine_kind = Full | Incr

(* Process-global selection, set once at CLI parse time (before the
   evaluation pool forks, so workers inherit it).  Incr is the default:
   it falls back to Full by itself whenever a model is out of scope. *)
let engine_ref = ref Incr

let set_engine k = engine_ref := k

let engine () = !engine_ref

let engine_name = function Full -> "full" | Incr -> "incr"

let engine_of_name = function
  | "full" -> Full
  | "incr" -> Incr
  | s -> invalid_arg (Printf.sprintf "Cost.engine_of_name: %S" s)

let m_fallbacks = Trg_obs.Metrics.counter "cost/incr/fallbacks"

(* Hot-path profile: whole-seed wall time, lazily registered so [prof/*]
   stays out of the registry unless [--profile] observed something. *)
let h_seed_us =
  lazy
    (Trg_obs.Metrics.histogram ~limits:Trg_obs.Prof.us_limits
       "prof/incr/seed_us")

(* Seeding charges every inter-procedure profile edge at the
   all-singletons starting position (every node at offset 0, exactly
   [Merge_driver]'s initial state).  One edge between a block of [l1]
   lines starting at set [s1] and a block of [l2] lines at [s2]
   contributes, over the offsets, the circular cross-correlation of the
   two line intervals — a trapezoid whose {e second difference} is just
   four spikes.  Accumulating spikes per procedure pair and integrating
   twice makes seeding O(1) per edge plus O(n_sets) per pair, instead of
   O(l1 x l2) per edge.  Exactness is preserved: every integrated value
   is the integral per-cell total the full evaluator would sum to. *)
(* Per-pair spike accumulator.  Spikes live at base + {0, l1, l2,
   l1+l2} with base < n_sets and l1, l2 <= n_sets, so a 3C+1 linear
   buffer holds them; the double prefix sum reconstructs the trapezoid,
   folded mod C as it streams.  [lo]/[hi] track the spike support so
   sparse pairs (few edges, narrow trapezoids) pay O(support), not
   O(3C), to integrate. *)
type spikes = {
  p1 : int;
  p2 : int;
  dd : float array;
  mutable lo : int;
  mutable hi : int;
}

let integrate_spikes t ~n_sets sp =
  Trg_cache.Incr.charge_block t ~p1:sp.p1 ~p2:sp.p2 (fun add ->
      let run1 = ref 0. and run2 = ref 0. in
      for i = sp.lo to sp.hi do
        run1 := !run1 +. sp.dd.(i);
        run2 := !run2 +. !run1;
        if !run2 <> 0. then add (i mod n_sets) !run2
      done)

(* Seed an incremental engine for a model, or [None] when the model is
   out of scope.  Only the two group-decomposable models qualify: the
   set-associative database charges tuples (not pairwise-linear in the
   group split) and Blend renormalises sub-costs per query
   (nonlinear), so those fall back to the full evaluator — as does any
   non-integral profile weight (perturbed graphs), which would void the
   bit-identity guarantee. *)
let seed_incr_untimed model program ~line_size ~n_sets =
  let fallback () =
    Trg_obs.Metrics.incr m_fallbacks;
    None
  in
  let line_count bytes = min ((bytes + line_size - 1) / line_size) n_sets in
  (* Pairs are keyed by a packed int (not a tuple) and the four spikes
     of each edge land directly in the pair's buffer: the per-edge cost
     is one int-keyed lookup and four array writes, with no allocation.
     A one-entry memo skips even the lookup on runs of edges between the
     same two procedures, the common case when walking adjacency. *)
  let by_pair : (int, spikes) Hashtbl.t = Hashtbl.create 1024 in
  let integral = ref true in
  let last_key = ref min_int in
  let last_spikes = ref None in
  let add_edge p1 s1 l1 p2 s2 l2 w =
    if p1 <> p2 then begin
      if not (Float.is_integer w) then integral := false;
      let a, sa, la, sb, lb =
        if p1 <= p2 then (p1, s1, l1, s2, l2) else (p2, s2, l2, s1, l1)
      in
      let key = (a lsl 31) lor (p1 lxor p2 lxor a) in
      let sp =
        match !last_spikes with
        | Some sp when !last_key = key -> sp
        | _ ->
          let sp =
            match Hashtbl.find_opt by_pair key with
            | Some sp -> sp
            | None ->
              let sp =
                {
                  p1 = a;
                  p2 = p1 lxor p2 lxor a;
                  dd = Array.make ((3 * n_sets) + 1) 0.;
                  lo = max_int;
                  hi = 0;
                }
              in
              Hashtbl.replace by_pair key sp;
              sp
          in
          last_key := key;
          last_spikes := Some sp;
          sp
      in
      let base = (sa - sb - (lb - 1) + (2 * n_sets)) mod n_sets in
      let dd = sp.dd in
      dd.(base) <- dd.(base) +. w;
      dd.(base + la) <- dd.(base + la) -. w;
      dd.(base + lb) <- dd.(base + lb) -. w;
      dd.(base + la + lb) <- dd.(base + la + lb) +. w;
      if base < sp.lo then sp.lo <- base;
      if base + la + lb > sp.hi then sp.hi <- base + la + lb
    end
  in
  let finish () =
    if not !integral then fallback ()
    else begin
      let t = Trg_cache.Incr.create ~n_sets in
      Hashtbl.iter (fun _ sp -> integrate_spikes t ~n_sets sp) by_pair;
      Trg_cache.Incr.freeze t;
      if Trg_cache.Incr.exact t then Some t else fallback ()
    end
  in
  match model with
  | Trg_chunks { chunks; trg } ->
    Graph.iter_edges_unordered
      (fun c1 c2 w ->
        (* Same-owner chunk edges are intra-node from the first merge to
           the last; the full evaluator never charges them either. *)
        let p1 = Chunk.owner chunks c1 and p2 = Chunk.owner chunks c2 in
        add_edge p1
          (chunk_start_set chunks ~line_size ~n_sets ~owner_set:0 c1)
          (line_count (Chunk.size_of chunks c1))
          p2
          (chunk_start_set chunks ~line_size ~n_sets ~owner_set:0 c2)
          (line_count (Chunk.size_of chunks c2))
          w)
      trg;
    finish ()
  | Wcg_procs { wcg } ->
    Graph.iter_edges_unordered
      (fun p1 p2 w ->
        add_edge p1 0
          (line_count (Program.size program p1))
          p2 0
          (line_count (Program.size program p2))
          w)
      wcg;
    finish ()
  | Sa_tuples _ | Blend _ -> fallback ()

let seed_incr model program ~line_size ~n_sets =
  if not (Trg_obs.Prof.enabled ()) then
    seed_incr_untimed model program ~line_size ~n_sets
  else begin
    let t0 = Trg_util.Clock.monotonic () in
    let r = seed_incr_untimed model program ~line_size ~n_sets in
    Trg_obs.Metrics.observe (Lazy.force h_seed_us)
      (1e6 *. (Trg_util.Clock.monotonic () -. t0));
    r
  end

let best_offset cost =
  let best = ref 0 in
  for i = 1 to Array.length cost - 1 do
    if cost.(i) < cost.(!best) then best := i
  done;
  !best

let node_occupancy program ~line_size ~n_sets node =
  let occ = Array.make n_sets false in
  List.iter
    (fun (p, off) ->
      iter_lines ~line_size ~n_sets ~start_set:off ~bytes:(Program.size program p)
        (fun s -> occ.(s) <- true))
    (Node.members node);
  occ

let best_offset_packed cost ~n1 ~n2 =
  let n_sets = Array.length cost in
  let overlap i =
    let count = ref 0 in
    for s = 0 to n_sets - 1 do
      if n2.(s) && n1.((s + i) mod n_sets) then incr count
    done;
    !count
  in
  let best = ref 0 and best_overlap = ref (overlap 0) in
  for i = 1 to n_sets - 1 do
    if cost.(i) < cost.(!best) then begin
      best := i;
      best_overlap := overlap i
    end
    else if cost.(i) = cost.(!best) then begin
      let o = overlap i in
      if o < !best_overlap then begin
        best := i;
        best_overlap := o
      end
    end
  done;
  !best
