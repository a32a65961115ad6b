type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
  initial_capacity : int;
}

let create ?(capacity = 0) ~cmp () =
  { cmp; data = [||]; size = 0; initial_capacity = capacity }

let length t = t.size

let is_empty t = t.size = 0

(* Growth is amortised: the backing array doubles, so n pushes cost O(n)
   element moves total.  The first allocation honours the capacity hint
   from [create], letting hot queues (the simulator) pre-size past the
   doubling ramp. *)
let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap =
      if cap = 0 then max 16 t.initial_capacity else cap * 2
    in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.data.(0)

let drop t =
  if t.size = 0 then invalid_arg "Heap.drop: empty heap";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    sift_down t 0
  end;
  (* Drop the stale slot so the GC can reclaim the element. *)
  if t.size < Array.length t.data then t.data.(t.size) <- t.data.(0)

let clear t =
  t.data <- [||];
  t.size <- 0

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc) in
  loop (t.size - 1) []
