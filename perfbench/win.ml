(* A run is cut into windows of a fixed number of ops.  Each window
   yields its own rate and latency quantiles.  For the rate and the
   p50s the run reports the quartile of its windows on the slow side:
   the rate three windows in four reach, the latency three windows in
   four stay under.  The shared machines this runs on alternate between
   a fast and a slow state every few seconds; that quartile stays in
   the slow state's tight cluster, where a median jumps between the
   two.  For the p99s the run reports the median window: a window's p99
   sits on the knee where the ops delayed by the host or the GC begin,
   so a burst of them lifts one window's p99 alone, and the slow-side
   quartile picks those bursts up. *)

type t = {
  read : Hist.t;
  write : Hist.t;
  mutable rates : float list;  (** ops per second *)
  mutable read_p50 : float list;  (** us *)
  mutable read_p99 : float list;
  mutable write_p50 : float list;
  mutable write_p99 : float list;
}

let create () =
  {
    read = Hist.create ();
    write = Hist.create ();
    rates = [];
    read_p50 = [];
    read_p99 = [];
    write_p50 = [];
    write_p99 = [];
  }

(* Close the current window, which held [ops] ops over [ns]
   nanoseconds; [ops = 0] records no rate. *)
let close t ~ops ~ns =
  if ops > 0 then t.rates <- (Float.of_int ops /. (Float.of_int ns /. 1e9)) :: t.rates;
  if t.read.n > 0 then begin
    t.read_p50 <- Hist.quantile_us t.read 0.5 :: t.read_p50;
    t.read_p99 <- Hist.quantile_us t.read 0.99 :: t.read_p99;
    Hist.reset t.read
  end;
  if t.write.n > 0 then begin
    t.write_p50 <- Hist.quantile_us t.write 0.5 :: t.write_p50;
    t.write_p99 <- Hist.quantile_us t.write 0.99 :: t.write_p99;
    Hist.reset t.write
  end

(* The [p]-quantile of [xs], interpolated between ranks. *)
let quantile p = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = p *. Float.of_int (Array.length a - 1) in
      let i = Float.to_int k in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((a.(j) -. a.(i)) *. (k -. Float.of_int i))

let median = quantile 0.5

let slow_rate = quantile 0.25

let slow_latency = quantile 0.75

let tail_latency = median

(* Take the read quantiles of windows another domain closed. *)
let take_reads ~into t =
  into.read_p50 <- t.read_p50 @ into.read_p50;
  into.read_p99 <- t.read_p99 @ into.read_p99
