(* Log-linear bucketing, the HdrHistogram layout: [n_sub] equal-width
   sub-buckets inside each power-of-two range.  For a value v in
   [2^(e-1), 2^e) the sub-bucket width is 2^(e-1) / n_sub <= v / n_sub, so
   the bucket midpoint is within v / (2 * n_sub) of v — bounded relative
   error at every magnitude, unlike plain log2 buckets whose error doubles
   with each octave.

   Indexing reads the float's bits: v = m * 2^e with m in [0.5, 1) (the
   [frexp] split), e from the exponent field, and the sub-bucket — the
   linear position of m inside [0.5, 1) — is the top log2 n_sub mantissa
   bits.  No branches on magnitude, no search, no allocation. *)

(* An all-float record is stored flat, so updating these allocates no
   boxed float — unlike float fields next to [count] in [t]. *)
type moments = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  n_sub : int;  (* power of two *)
  sub_bits : int;  (* log2 n_sub *)
  buckets : int array;  (* 1 underflow bucket + max_exp * n_sub *)
  mutable count : int;
  m : moments;
}

(* 2^40 microseconds is ~12.7 days; anything beyond clamps into the top
   bucket (its count and the exact max survive). *)
let max_exp = 40

let create ?(error = 0.01) () =
  if not (error > 0. && error <= 1.) then
    invalid_arg "Iw_hist.create: error must be in (0, 1]";
  let sub_bits =
    let b = ref 0 in
    while float_of_int (1 lsl !b) *. error < 1. && !b < 20 do
      incr b
    done;
    !b
  in
  let n_sub = 1 lsl sub_bits in
  {
    n_sub;
    sub_bits;
    buckets = Array.make (1 + (max_exp * n_sub)) 0;
    count = 0;
    m = { sum = 0.; min_v = infinity; max_v = neg_infinity };
  }

let error t = 1. /. float_of_int t.n_sub

let index t v =
  if not (v >= 1.) then 0 (* negative, sub-unit, and NaN all land here *)
  else begin
    let bits = Int64.bits_of_float v in
    (* v >= 1 is positive and normal: a biased exponent field of b is
       frexp's e = b - 1022. *)
    let e = Int64.to_int (Int64.shift_right_logical bits 52) - 1022 in
    if e > max_exp then Array.length t.buckets - 1
    else begin
      let mantissa = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
      let sub = mantissa lsr (52 - t.sub_bits) in
      1 + ((e - 1) * t.n_sub) + sub
    end
  end

(* Midpoint of the bucket's value range; bucket 0 covers [0, 1). *)
let representative t idx =
  if idx = 0 then 0.5
  else begin
    let b = idx - 1 in
    let e = (b / t.n_sub) + 1 in
    let sub = b mod t.n_sub in
    let n = float_of_int t.n_sub in
    let lo = Float.ldexp (0.5 +. (float_of_int sub /. (2. *. n))) e in
    let width = Float.ldexp (1. /. n) (e - 1) in
    lo +. (width /. 2.)
  end

let record_n t v n =
  if n > 0 then begin
    let i = index t v in
    t.buckets.(i) <- t.buckets.(i) + n;
    t.count <- t.count + n;
    t.m.sum <- t.m.sum +. (v *. float_of_int n);
    if v < t.m.min_v then t.m.min_v <- v;
    if v > t.m.max_v then t.m.max_v <- v
  end

let record t v = record_n t v 1

let count t = t.count

let sum t = t.m.sum

let mean t = if t.count = 0 then Float.nan else t.m.sum /. float_of_int t.count

let min_value t = if t.count = 0 then Float.nan else t.m.min_v

let max_value t = if t.count = 0 then Float.nan else t.m.max_v

let quantile t q =
  if t.count = 0 then Float.nan
  else if q >= 1. then t.m.max_v
  else begin
    let target =
      let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let n = Array.length t.buckets in
    let rec go i cum =
      if i >= n then t.m.max_v
      else begin
        let cum = cum + t.buckets.(i) in
        if cum >= target then begin
          (* The exact extremes bound the bucket midpoint: a quantile can
             never be reported outside the recorded range. *)
          let v = representative t i in
          Float.min t.m.max_v (Float.max t.m.min_v v)
        end
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let merge ~into src =
  if into.n_sub <> src.n_sub then
    invalid_arg "Iw_hist.merge: histograms have different error bounds";
  Array.iteri
    (fun i c -> if c <> 0 then into.buckets.(i) <- into.buckets.(i) + c)
    src.buckets;
  into.count <- into.count + src.count;
  into.m.sum <- into.m.sum +. src.m.sum;
  if src.m.min_v < into.m.min_v then into.m.min_v <- src.m.min_v;
  if src.m.max_v > into.m.max_v then into.m.max_v <- src.m.max_v

let copy t =
  {
    t with
    buckets = Array.copy t.buckets;
    m = { sum = t.m.sum; min_v = t.m.min_v; max_v = t.m.max_v };
  }

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.count <- 0;
  t.m.sum <- 0.;
  t.m.min_v <- infinity;
  t.m.max_v <- neg_infinity

type summary = {
  sm_count : int;
  sm_mean : float;
  sm_p50 : float;
  sm_p90 : float;
  sm_p99 : float;
  sm_p999 : float;
  sm_max : float;
}

let summary t =
  {
    sm_count = t.count;
    sm_mean = mean t;
    sm_p50 = quantile t 0.5;
    sm_p90 = quantile t 0.9;
    sm_p99 = quantile t 0.99;
    sm_p999 = quantile t 0.999;
    sm_max = max_value t;
  }
