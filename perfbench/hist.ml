(* Log-linear latency histogram over nanoseconds: exact below 1024 ns,
   then 512 buckets per power of two (under 0.2% relative error), so a
   run of millions of samples costs 216 KiB and no allocation. *)

let sub_bits = 9

let sub = 1 lsl sub_bits

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make ((63 - sub_bits) * sub) 0; n = 0 }

let rec msb v b = if v <= 1 then b else msb (v lsr 1) (b + 1)

let index v =
  if v < 2 * sub then max v 0
  else
    let shift = msb v 0 - sub_bits in
    (shift lsl sub_bits) + (v lsr shift)

(* Midpoint of a bucket, in ns. *)
let value i =
  if i < 2 * sub then Float.of_int i
  else
    let shift = (i lsr sub_bits) - 1 in
    let lower = (i - (shift lsl sub_bits)) lsl shift in
    Float.of_int lower +. (Float.of_int (1 lsl shift) /. 2.)

let add t ns =
  let i = index ns in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0

(* The [p]-quantile in microseconds (nan when empty). *)
let quantile_us t p =
  if t.n = 0 then Float.nan
  else
    let rank = max 1 (Float.to_int (Float.ceil (p *. Float.of_int t.n))) in
    let rec go i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank || i = Array.length t.counts - 1 then value i /. 1000.
      else go (i + 1) seen
    in
    go 0 0
