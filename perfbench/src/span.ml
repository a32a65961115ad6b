external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type t = {
  names : string array;
  mutable n : int;
  mutable layer : int array;
  mutable parent : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable w0 : float array;
  mutable words : float array;
  mutable stack : int array;
  mutable depth : int;
}

let create ~layers =
  let cap = 4096 in
  {
    names = layers;
    n = 0;
    layer = Array.make cap 0;
    parent = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    w0 = Array.make cap 0.0;
    words = Array.make cap 0.0;
    stack = Array.make 64 0;
    depth = 0;
  }

let count t = t.n

let grow_int a n = Array.append a (Array.make n 0)
let grow_float a n = Array.append a (Array.make n 0.0)

let grow t =
  let n = Array.length t.layer in
  t.layer <- grow_int t.layer n;
  t.parent <- grow_int t.parent n;
  t.t0 <- grow_int t.t0 n;
  t.t1 <- grow_int t.t1 n;
  t.w0 <- grow_float t.w0 n;
  t.words <- grow_float t.words n

let enter t layer =
  if t.n = Array.length t.layer then grow t;
  if t.depth = Array.length t.stack then t.stack <- grow_int t.stack t.depth;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.w0.(i) <- Gc.minor_words ();
  t.t0.(i) <- now_ns ()

let leave t =
  let now = now_ns () in
  let w = Gc.minor_words () in
  if t.depth = 0 then invalid_arg "Span.leave: no open span";
  t.depth <- t.depth - 1;
  let i = t.stack.(t.depth) in
  t.t1.(i) <- now;
  t.words.(i) <- w -. t.w0.(i)

type record = { layer : int; parent : int; start_ns : int; end_ns : int; words : float }

let get (t : t) i =
  { layer = t.layer.(i); parent = t.parent.(i); start_ns = t.t0.(i); end_ns = t.t1.(i);
    words = t.words.(i) }

let of_records ~layers records =
  let t = create ~layers in
  Array.iter
    (fun (r : record) ->
      if t.n = Array.length t.layer then grow t;
      let i = t.n in
      t.n <- i + 1;
      t.layer.(i) <- r.layer;
      t.parent.(i) <- r.parent;
      t.t0.(i) <- r.start_ns;
      t.t1.(i) <- r.end_ns;
      t.words.(i) <- r.words)
    records;
  t

type layer_total = { calls : int; total_ns : int; self_ns : int; self_words : float }

(* Children are recorded in start order, so one pass can keep, per
   parent, the union of the child intervals seen so far: [reach.(p)] is
   the furthest point already covered inside [p]. *)
let self_times (t : t) =
  let n = t.n in
  let covered = Array.make n 0 in
  let reach = Array.init n (fun i -> t.t0.(i)) in
  let child_words = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      let lo = max t.t0.(i) reach.(p) and hi = min t.t1.(i) t.t1.(p) in
      if hi > lo then begin
        covered.(p) <- covered.(p) + (hi - lo);
        reach.(p) <- hi
      end;
      child_words.(p) <- child_words.(p) +. t.words.(i)
    end
  done;
  let totals =
    Array.make (Array.length t.names) { calls = 0; total_ns = 0; self_ns = 0; self_words = 0.0 }
  in
  for i = 0 to n - 1 do
    let l = t.layer.(i) in
    let dur = t.t1.(i) - t.t0.(i) in
    let acc = totals.(l) in
    totals.(l) <-
      {
        calls = acc.calls + 1;
        total_ns = acc.total_ns + dur;
        self_ns = acc.self_ns + (dur - covered.(i));
        self_words = acc.self_words +. (t.words.(i) -. child_words.(i));
      }
  done;
  totals

let write_tsv (t : t) ~path ~limit =
  let oc = open_out path in
  let shown = min limit t.n in
  Printf.fprintf oc "# spans recorded: %d; written: %d\n" t.n shown;
  Printf.fprintf oc "# index\tlayer\tparent\tstart_ns\tend_ns\tminor_words\n";
  for i = 0 to shown - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%.0f\n" i t.names.(t.layer.(i)) t.parent.(i) t.t0.(i)
      t.t1.(i) t.words.(i)
  done;
  close_out oc
