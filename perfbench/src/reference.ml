let nominal_ns_per_lookup = 60.0
let entries = 0x20000
let lookups = 1_000_000

let table =
  lazy
    (let tbl = Hashtbl.create (2 * entries) in
     for i = 0 to entries - 1 do
       Hashtbl.replace tbl (i * 7919) i
     done;
     tbl)

let measure () =
  let tbl = Lazy.force table in
  let c0 = Sys.time () in
  let acc = ref 0 in
  for i = 0 to lookups - 1 do
    acc := !acc + Hashtbl.find tbl ((i * 40503) land (entries - 1) * 7919)
  done;
  let c1 = Sys.time () in
  ignore (Sys.opaque_identity !acc : int);
  (c1 -. c0) *. 1e9 /. float_of_int lookups

let scale measured = nominal_ns_per_lookup /. measured
