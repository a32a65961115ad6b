open Nezha_engine

type 'v entry = {
  key : Flow_key.t; (* interned at first insert; re-arms reuse it *)
  mutable value : 'v;
  mutable bytes : int; (* total accounted size, overhead included *)
  mutable timer : Flow_key.t Timer_wheel.timer;
}

type 'v t = {
  capacity : int option;
  entry_overhead : int;
  value_bytes : 'v -> int;
  value_aging : 'v -> float;
  (* An empty placeholder until the first new key, then [table_size]
     buckets: an idle table never pays for them, and lookups run
     against the placeholder without a check. *)
  mutable entries : 'v entry Flow_key.Table.t;
  mutable sized : bool;
  wheel : Flow_key.t Timer_wheel.t;
  mutable used_bytes : int;
}

let table_size = 1024

let create ?capacity_bytes ?value_aging ~entry_overhead ~value_bytes ~default_aging () =
  if default_aging <= 0.0 then invalid_arg "Flow_table.create: aging must be positive";
  {
    capacity = capacity_bytes;
    entry_overhead;
    value_bytes;
    value_aging = (match value_aging with Some f -> f | None -> fun _ -> default_aging);
    entries = Flow_key.Table.create 1;
    sized = false;
    (* Tick at 1/8 of the aging time: expiry error stays under ~12%. *)
    wheel = Timer_wheel.create ~tick:(default_aging /. 8.0) ~slots:256;
    used_bytes = 0;
  }

let entry_size t v = t.entry_overhead + t.value_bytes v

let fits t extra =
  match t.capacity with None -> true | Some cap -> t.used_bytes + extra <= cap

let aging_of t ?aging v = match aging with Some a -> a | None -> t.value_aging v

let arm t ~now ~aging key =
  Timer_wheel.add t.wheel ~now ~deadline:(now +. aging) key

(* A refresh usually lands in the slot the entry is already filed under
   (the wheel ticks at 1/8 of the aging time), so the timer record is
   reused rather than replaced. *)
let rearm e ~now ~aging =
  e.timer <- Timer_wheel.retarget e.timer ~now ~deadline:(now +. aging)

(* Each operation hashes its key once; only [find] builds an option. *)
let insert t ~now ?aging key v =
  match Flow_key.Table.find t.entries key with
  | e ->
    let nbytes = entry_size t v in
    if fits t (nbytes - e.bytes) then begin
      t.used_bytes <- t.used_bytes + nbytes - e.bytes;
      e.value <- v;
      e.bytes <- nbytes;
      rearm e ~now ~aging:(aging_of t ?aging v);
      Admission.ok
    end
    else Admission.table_full
  | exception Not_found ->
    let nbytes = entry_size t v in
    if fits t nbytes then begin
      let aging = aging_of t ?aging v in
      let e = { key; value = v; bytes = nbytes; timer = arm t ~now ~aging key } in
      if not t.sized then begin
        t.entries <- Flow_key.Table.create table_size;
        t.sized <- true
      end;
      Flow_key.Table.replace t.entries key e;
      t.used_bytes <- t.used_bytes + nbytes;
      Admission.ok
    end
    else Admission.table_full

let find t key =
  match Flow_key.Table.find t.entries key with
  | e -> Some e.value
  | exception Not_found -> None

let get t key = (Flow_key.Table.find t.entries key).value

let touch t ~now key =
  match Flow_key.Table.find t.entries key with
  | e ->
    rearm e ~now ~aging:(t.value_aging e.value);
    true
  | exception Not_found -> false

let update t ~now key f =
  match Flow_key.Table.find t.entries key with
  | e ->
    let v = f e.value in
    let nbytes = entry_size t v in
    t.used_bytes <- t.used_bytes + nbytes - e.bytes;
    e.value <- v;
    e.bytes <- nbytes;
    rearm e ~now ~aging:(t.value_aging v);
    true
  | exception Not_found -> false

let remove t key =
  match Flow_key.Table.find t.entries key with
  | e ->
    Timer_wheel.cancel e.timer;
    Flow_key.Table.remove t.entries key;
    t.used_bytes <- t.used_bytes - e.bytes;
    true
  | exception Not_found -> false

let expire t ~now ~on_expire =
  let fired = ref 0 in
  ignore
    (Timer_wheel.advance t.wheel ~now (fun key ->
         match Flow_key.Table.find t.entries key with
         | e ->
           Flow_key.Table.remove t.entries key;
           t.used_bytes <- t.used_bytes - e.bytes;
           incr fired;
           on_expire key e.value
         | exception Not_found -> ())
      : int);
  !fired

let length t = Flow_key.Table.length t.entries
let memory_bytes t = t.used_bytes
let capacity_bytes t = t.capacity

let iter t f = Flow_key.Table.iter (fun k e -> f k e.value) t.entries

let clear t =
  Flow_key.Table.iter (fun _ e -> Timer_wheel.cancel e.timer) t.entries;
  Flow_key.Table.reset t.entries;
  t.used_bytes <- 0
