module Json = Nezha_telemetry.Json
module Histogram = Nezha_engine.Stats.Histogram

type t = { n : int; min : float; q1 : float; median : float; q3 : float; max : float }

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let of_samples samples =
  if samples = [] then invalid_arg "Summary.of_samples: no samples";
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  {
    n;
    min = a.(0);
    q1 = quantile a 0.25;
    median = quantile a 0.5;
    q3 = quantile a 0.75;
    max = a.(n - 1);
  }

type percentile = { value : float; samples : int; beyond : int }

let histogram_percentile h p =
  let samples = Histogram.count h in
  let rank = int_of_float (Float.ceil (float_of_int samples *. p /. 100.0)) in
  { value = Histogram.percentile h p; samples; beyond = samples - rank }

let to_json s =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("min", Json.Float s.min);
      ("q1", Json.Float s.q1);
      ("median", Json.Float s.median);
      ("q3", Json.Float s.q3);
      ("max", Json.Float s.max);
    ]
