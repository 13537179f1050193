module Chunk = Trg_program.Chunk
module Trace = Trg_trace.Trace
module Event = Trg_trace.Event

type t = { arity : int; start : int array; ids : int array; weights : float array }

type built = { db : t; qstats : Qset.stats }

(* An entry's key is its [arity + 1] fields — p, then the ascending ids —
   packed [62 / bits] fields of [bits] bits to a word, most significant
   first, so comparing the packed words in order compares the fields
   lexicographically.  [bits] widens (repacking every entry) whenever a
   larger id arrives, so any non-negative id fits, and small-id programs
   get one-word keys.  [slots] is an open-addressing (linear probing)
   index over the entries, kept at most three-quarters full. *)
type builder = {
  b_arity : int;
  mutable bits : int;
  mutable stride : int;  (* words per packed key *)
  mutable word_of : int array;  (* field -> word within the key *)
  mutable shift_of : int array;  (* field -> bit offset within its word *)
  mutable keys : int array;  (* stride words per entry *)
  mutable ws : float array;
  mutable n : int;
  mutable slots : int array;  (* entry index, or -1 when free *)
  key : int array;  (* the fields of the key being added *)
  packed : int array;  (* its packed words *)
}

let layout b bits =
  let per = 62 / bits in
  b.bits <- bits;
  b.stride <- (b.b_arity + per) / per;
  b.word_of <- Array.init (b.b_arity + 1) (fun f -> f / per);
  b.shift_of <- Array.init (b.b_arity + 1) (fun f -> bits * (per - 1 - (f mod per)))

let create ~arity =
  if arity < 1 then invalid_arg "Tuple_db.create: arity must be >= 1";
  let b =
    {
      b_arity = arity;
      bits = 0;
      stride = 0;
      word_of = [||];
      shift_of = [||];
      keys = [||];
      ws = Array.make 64 0.;
      n = 0;
      slots = Array.make 128 (-1);
      key = Array.make (arity + 1) 0;
      packed = Array.make (arity + 1) 0;
    }
  in
  layout b 8;
  b.keys <- Array.make (64 * b.stride) 0;
  b

let field b keys off f =
  (keys.(off + b.word_of.(f)) lsr b.shift_of.(f)) land ((1 lsl b.bits) - 1)

let pack b fields dst off =
  Array.fill dst off b.stride 0;
  for f = 0 to b.b_arity do
    let w = off + b.word_of.(f) in
    dst.(w) <- dst.(w) lor (fields.(f) lsl b.shift_of.(f))
  done

(* Word-by-word multiply-xorshift, finished so that every key bit reaches
   the low bits the table index uses. *)
let hash a off stride =
  let h = ref 0 in
  for j = 0 to stride - 1 do
    let x = (!h lxor a.(off + j)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 31)
  done;
  let x = !h * 0x5851F42D4C957F2D in
  x lxor (x lsr 29)

let reindex b size =
  let slots = Array.make size (-1) in
  let mask = size - 1 in
  for e = 0 to b.n - 1 do
    let i = ref (hash b.keys (e * b.stride) b.stride land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- e
  done;
  b.slots <- slots

(* Repacks every entry [bits] wide. *)
let widen b bits =
  let old = { b with bits = b.bits } (* a snapshot of the current layout *) in
  layout b bits;
  let keys = Array.make (Array.length b.ws * b.stride) 0 in
  let fields = Array.make (b.b_arity + 1) 0 in
  for e = 0 to b.n - 1 do
    for f = 0 to b.b_arity do
      fields.(f) <- field old old.keys (e * old.stride) f
    done;
    pack b fields keys (e * b.stride)
  done;
  b.keys <- keys;
  reindex b (Array.length b.slots)

let same keys key stride e =
  let off = e * stride in
  let j = ref 0 in
  while !j < stride && keys.(off + !j) = key.(!j) do
    incr j
  done;
  !j = stride

(* Adds [w] to the entry keyed by the fields in [b.key]. *)
let add_key b w =
  let top = ref 0 in
  for f = 0 to b.b_arity do
    top := !top lor b.key.(f)
  done;
  if !top < 0 then invalid_arg "Tuple_db: negative id";
  if !top lsr b.bits <> 0 then begin
    let bits = ref b.bits in
    while !top lsr !bits <> 0 do
      incr bits
    done;
    widen b !bits
  end;
  let stride = b.stride and key = b.packed in
  pack b b.key key 0;
  let mask = Array.length b.slots - 1 in
  let i = ref (hash key 0 stride land mask) in
  while b.slots.(!i) >= 0 && not (same b.keys key stride b.slots.(!i)) do
    i := (!i + 1) land mask
  done;
  let e = b.slots.(!i) in
  if e >= 0 then b.ws.(e) <- b.ws.(e) +. w
  else begin
    let e = b.n in
    if e = Array.length b.ws then begin
      (* Grow by half, not double: the key store dominates the table's memory. *)
      let cap = e + (e / 2) in
      let keys = Array.make (cap * stride) 0 in
      Array.blit b.keys 0 keys 0 (e * stride);
      b.keys <- keys;
      let ws = Array.make cap 0. in
      Array.blit b.ws 0 ws 0 e;
      b.ws <- ws
    end;
    Array.blit key 0 b.keys (e * stride) stride;
    b.ws.(e) <- w;
    b.slots.(!i) <- e;
    b.n <- e + 1;
    if 4 * b.n > 3 * Array.length b.slots then reindex b (2 * Array.length b.slots)
  end

let normalize ~arity ~p ids =
  if List.length ids <> arity then invalid_arg "Tuple_db: wrong tuple size";
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> arity then invalid_arg "Tuple_db: duplicate ids";
  if List.mem p sorted then invalid_arg "Tuple_db: tuple member equals p";
  sorted

let add b ~p ~ids w =
  let sorted = normalize ~arity:b.b_arity ~p ids in
  b.key.(0) <- p;
  List.iteri (fun j id -> b.key.(j + 1) <- id) sorted;
  add_key b w

(* Packed keys compare in canonical order, p first: sort the entries by
   them, count each p's entries into [start], and unpack ids and copy
   weights out in sorted order. *)
let freeze b =
  let arity = b.b_arity and stride = b.stride in
  let n = b.n and keys = b.keys in
  let by_key e1 e2 =
    let o1 = e1 * stride and o2 = e2 * stride in
    let j = ref 0 in
    while !j < stride && keys.(o1 + !j) = keys.(o2 + !j) do
      incr j
    done;
    if !j = stride then 0 else Int.compare keys.(o1 + !j) keys.(o2 + !j)
  in
  let order = Array.init n Fun.id in
  Array.stable_sort by_key order;
  let p_of e = field b keys (e * stride) 0 in
  let start = Array.make (if n = 0 then 1 else p_of order.(n - 1) + 2) 0 in
  for e = 0 to n - 1 do
    let p = p_of e in
    start.(p + 1) <- start.(p + 1) + 1
  done;
  for p = 1 to Array.length start - 1 do
    start.(p) <- start.(p) + start.(p - 1)
  done;
  let ids = Array.make (n * arity) 0 and weights = Array.make n 0. in
  for k = 0 to n - 1 do
    let e = order.(k) in
    for j = 0 to arity - 1 do
      ids.((k * arity) + j) <- field b keys (e * stride) (j + 1)
    done;
    weights.(k) <- b.ws.(e)
  done;
  { arity; start; ids; weights }

let n_entries t = Array.length t.weights

let entries t p =
  if p < 0 || p + 1 >= Array.length t.start then (0, 0)
  else (t.start.(p), t.start.(p + 1))

let ids_of t e = List.init t.arity (fun j -> t.ids.((e * t.arity) + j))

let count t ~p ~ids =
  let key = normalize ~arity:t.arity ~p ids in
  let lo, hi = entries t p in
  let rec find e =
    if e >= hi then 0. else if ids_of t e = key then t.weights.(e) else find (e + 1)
  in
  find lo

let iter_p t p f =
  let lo, hi = entries t p in
  for e = lo to hi - 1 do
    f (ids_of t e) t.weights.(e)
  done

let iter t f =
  for p = 0 to Array.length t.start - 2 do
    iter_p t p (f p)
  done

let map_weights f t =
  let weights = Array.make (n_entries t) 0. in
  for e = 0 to n_entries t - 1 do
    weights.(e) <- f t.weights.(e)
  done;
  { t with weights }

let default_max_between arity = if arity <= 2 then 24 else if arity = 3 then 12 else 10

let build_stream ~arity ~capacity_bytes ~size_of ?max_between feed =
  let max_between =
    match max_between with Some m -> max m 0 | None -> default_max_between arity
  in
  let b = create ~arity in
  let q = Qset.create ~capacity_bytes ~size_of in
  (* A ring of the most recent [max_between] interveners of the current
     reference; [seen] counts all of them. *)
  let ring = Array.make (max 1 max_between) 0 and seen = ref 0 in
  let push id =
    if max_between > 0 then ring.(!seen mod max_between) <- id;
    incr seen
  in
  let key = b.key in
  (* Every [arity]-subset of the ascending [ring.(0 .. k-1)], written into
     [key.(depth ..)] and added. *)
  let rec choose depth from k =
    if depth > arity then add_key b 1.
    else
      for i = from to k - 1 - (arity - depth) do
        key.(depth) <- ring.(i);
        choose (depth + 1) (i + 1) k
      done
  in
  let last = ref (-1) in
  let emit p =
    if p <> !last then begin
      last := p;
      seen := 0;
      if Qset.reference q p ~between:push then begin
        let k = min !seen max_between in
        if k >= arity then begin
          (* Insertion sort: [k] is at most [max_between]. *)
          for i = 1 to k - 1 do
            let x = ring.(i) in
            let j = ref (i - 1) in
            while !j >= 0 && ring.(!j) > x do
              ring.(!j + 1) <- ring.(!j);
              decr j
            done;
            ring.(!j + 1) <- x
          done;
          key.(0) <- p;
          choose 1 0 k
        end
      end
    end
  in
  feed emit;
  { db = freeze b; qstats = Qset.stats q }

let build_place ?(keep = fun _ -> true) ~arity ~capacity_bytes ?max_between chunks
    trace =
  let feed emit =
    Trace.iter
      (fun (e : Event.t) ->
        if keep e.proc then
          Chunk.iter_range chunks ~proc:e.proc ~offset:e.offset ~len:e.len emit)
      trace
  in
  build_stream ~arity ~capacity_bytes ~size_of:(Chunk.size_of chunks) ?max_between
    feed
