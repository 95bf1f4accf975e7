(* The benchmark's own generators (SplitMix64 and a YCSB Zipf sampler),
   so that its inputs depend on the seed alone and not on the program's
   workload library. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

type t = { mutable s : int }

let create seed = { s = seed lxor 0x2545F4914F6CDD1D }

let next t =
  t.s <- t.s + 0x1E3779B97F4A7C15;
  let z = t.s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let below t n = next t mod n

(* Uniform in [0, 1) from the top 53 of the 62 random bits. *)
let float t = Float.of_int (next t lsr 9) /. Float.of_int (1 lsl 53)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Gray et al.'s Zipf sampler over [0, n), index 0 the most popular;
   [theta = 0.] is uniform. *)
type zipf = { n : int; theta : float; zetan : float; eta : float; alpha : float }

let zipf ~theta n =
  let zeta m =
    let s = ref 0. in
    for i = 1 to m do
      s := !s +. (1. /. Float.pow (Float.of_int i) theta)
    done;
    !s
  in
  if theta = 0. then { n; theta; zetan = 0.; eta = 0.; alpha = 0. }
  else
    let zetan = zeta n in
    {
      n;
      theta;
      zetan;
      alpha = 1. /. (1. -. theta);
      eta =
        (1. -. Float.pow (2. /. Float.of_int n) (1. -. theta))
        /. (1. -. (zeta 2 /. zetan));
    }

let sample z t =
  if z.theta = 0. then below t z.n
  else
    let u = float t in
    let uz = u *. z.zetan in
    if uz < 1. then 0
    else if uz < 1. +. Float.pow 0.5 z.theta then 1
    else
      let i =
        Float.to_int
          (Float.of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.) z.alpha)
      in
      max 0 (min (z.n - 1) i)
