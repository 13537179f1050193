let on = ref false

let set_enabled v = on := v

let enabled () = !on

(* Half-decade buckets from 1 us to 1e8 us (100 s): fine enough to
   separate a seeding pass from a per-merge delta, wide enough that a
   whole pool unit lands in a bounded bucket, coarse enough that
   histogram snapshots stay small in manifests. *)
let us_limits =
  [| 1.; 3.; 10.; 30.; 100.; 300.; 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 3e7; 1e8 |]
