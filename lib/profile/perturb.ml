module Prng = Trg_util.Prng

let default_s = 0.1

let factor rng s = exp (s *. Prng.normal rng)

let graph rng ~s g =
  if s = 0. then Graph.copy g
  else Graph.map_weights (fun _ _ w -> w *. factor rng s) g

let tuple_db rng ~s db =
  if s = 0. then db else Tuple_db.map_weights (fun w -> w *. factor rng s) db
