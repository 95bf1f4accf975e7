(* The layer ladder of the traced run.  One seeded op stream is replayed,
   one rung at a time, against identically built instances:

   1. the bare structure ([Dstruct.Btree]);
   2. [Txn] over it ([get]/[put]/[del]/[mget]/[range]/[exec]);
   3. [Mount.exec] / [Mount.exec_txn] on pre-parsed commands;
   4. the full codec path (parse, execute, render).

   Each rung times each call with a span and counts the words allocated
   over the workload's own stream; a layer's self cost is the
   difference between adjacent rungs.  Op kinds a workload lacks are measured on a short probe
   stream after its own, so every rung reports every kind.  Every
   result is checked against the model's expectation. *)

module P = Server.Protocol
module M = Server.Mount
module B = Dstruct.Btree

let absent = Gen.absent

type item =
  | Get of int
  | Put of int * int
  | Del of int
  | Mget of int array
  | Range of int * int
  | Xfer of int * int * int  (** from, to, amount: the bank transfer *)

(* What the model says an item returns. *)
type expect =
  | X_get of int option
  | X_bool of bool  (** PUT inserted / DEL removed *)
  | X_vals of int option array
  | X_pairs of (int * int) list
  | X_xfer of int * int  (** both balances before the transfer *)

let n_classes = 5

let cls = function
  | Get _ -> 0
  | Put _ | Del _ -> 1
  | Mget _ -> 2
  | Range _ -> 3
  | Xfer _ -> 4

let opt v = if v = absent then None else Some v

(* Apply [it] to the model [sim] and return what it must answer. *)
let model sim = function
  | Get k -> X_get (opt sim.(k))
  | Put (k, v) ->
      let fresh = sim.(k) = absent in
      if fresh then sim.(k) <- v;
      X_bool fresh
  | Del k ->
      let present = sim.(k) <> absent in
      sim.(k) <- absent;
      X_bool present
  | Mget ks -> X_vals (Array.map (fun k -> opt sim.(k)) ks)
  | Range (lo, hi) ->
      let ps = ref [] in
      for k = min hi (Array.length sim - 1) downto lo do
        if sim.(k) <> absent then ps := (k, sim.(k)) :: !ps
      done;
      X_pairs !ps
  | Xfer (a, c, x) ->
      let ba = sim.(a) and bc = sim.(c) in
      sim.(a) <- ba - x;
      sim.(c) <- bc + x;
      X_xfer (ba, bc)

let commands it ex =
  match (it, ex) with
  | Get k, _ -> [ P.Get k ]
  | Put (k, v), _ -> [ P.Put (k, v) ]
  | Del k, _ -> [ P.Del k ]
  | Mget ks, _ -> [ P.Mget ks ]
  | Range (lo, hi), _ -> [ P.Range (lo, hi) ]
  | Xfer (a, c, x), X_xfer (ba, bc) ->
      [ P.Get a; P.Get c; P.Del a; P.Put (a, ba - x); P.Del c; P.Put (c, bc + x) ]
  | Xfer _, _ -> assert false

let reply_of_expect it ex =
  let value = function Some v -> P.Int v | None -> P.Nil in
  match (it, ex) with
  | Put _, X_bool b -> if b then P.Ok_ else P.Exists
  | _, X_bool b -> P.Int (if b then 1 else 0)
  | _, X_get v -> value v
  | _, X_vals vs -> P.Arr (Array.to_list (Array.map value vs))
  | _, X_pairs ps -> P.Arr (List.concat_map (fun (k, v) -> [ P.Int k; P.Int v ]) ps)
  | _, X_xfer (ba, bc) -> P.(Arr [ Int 0; Int ba; Int bc; Int 1; Ok_; Int 1; Ok_ ])

let steps_of_expect = function
  | X_xfer (ba, bc) -> Txn.[ S_int ba; S_int bc; S_int 1; S_ok; S_int 1; S_ok ]
  | _ -> []

let txn_ops = function
  | P.Get k -> Txn.Get k
  | P.Put (k, v) -> Txn.Put (k, v)
  | P.Del k -> Txn.Del k
  | _ -> assert false

let lines b it ex =
  match (it, ex) with
  | Get k, _ -> [| Wire.line1 b "GET " k |]
  | Put (k, v), _ -> [| Wire.line2 b "PUT " k v |]
  | Del k, _ -> [| Wire.line1 b "DEL " k |]
  | Mget ks, _ ->
      Buffer.clear b;
      Buffer.add_string b "MGET";
      Array.iter
        (fun k ->
          Buffer.add_char b ' ';
          Wire.add_int b k)
        ks;
      [| Buffer.contents b |]
  | Range (lo, hi), _ -> [| Wire.line2 b "RANGE " lo hi |]
  | Xfer (a, c, x), X_xfer (ba, bc) ->
      let ls = Array.make 8 "" in
      Wire.xfer_lines b ls ~a ~ba ~c ~bc ~x;
      ls
  | Xfer _, _ -> assert false

(* A replayable stream: [n_stream] items of the workload, then probes.
   Every rung's inputs and expected results are built here, so that a
   rung's replay allocates nothing beyond what the program does. *)
type stream = {
  items : item array;
  expects : expect array;
  cmds : P.command list array;
  txops : Txn.op list array;  (** transfers only *)
  steps : Txn.step list array;  (** what [Txn.exec] must return for a transfer *)
  replies : P.reply array;  (** what [Mount] must return; a transfer's stamp reads 0 *)
  wire : string array array;
  n_stream : int;
}

let probe_count = 1024

(* Probes for the kinds [its] lacks.  Keys are drawn uniformly; writes
   come in DEL/PUT pairs and transfers move 0, so probes leave the
   store as they found it. *)
let probes rng sim its =
  let seen = Array.make n_classes false in
  Array.iter (fun it -> seen.(cls it) <- true) its;
  let n = Array.length sim in
  let rec present () =
    let k = Rng.below rng n in
    if sim.(k) <> absent then k else present ()
  in
  let of_class c =
    if seen.(c) then []
    else
      List.concat
        (List.init probe_count (fun i ->
             match c with
             | 0 -> [ Get (Rng.below rng n) ]
             | 1 ->
                 if i land 1 = 0 then
                   let k = present () in
                   [ Del k; Put (k, sim.(k)) ]
                 else []
             | 2 -> [ Mget (Array.init 16 (fun _ -> Rng.below rng n)) ]
             | 3 ->
                 let lo = Rng.below rng n in
                 [ Range (lo, lo + 15) ]
             | _ ->
                 let a = present () in
                 let rec other () =
                   let c = present () in
                   if c = a then other () else c
                 in
                 [ Xfer (a, other (), 0) ]))
  in
  Array.of_list (List.concat_map of_class (List.init n_classes Fun.id))

let stream rng (pre : Gen.prefill) its =
  let sim = Array.copy pre.shadow in
  let n_stream = Array.length its in
  let expects0 = Array.map (model sim) its in
  let extra = probes rng sim its in
  let items = Array.append its extra in
  let expects = Array.append expects0 (Array.map (model sim) extra) in
  let cmds = Array.map2 commands items expects in
  let b = Buffer.create 256 in
  {
    items;
    expects;
    cmds;
    txops =
      Array.mapi
        (fun i cs -> match items.(i) with Xfer _ -> List.map txn_ops cs | _ -> [])
        cmds;
    steps = Array.map steps_of_expect expects;
    replies = Array.map2 reply_of_expect items expects;
    wire = Array.map2 (lines b) items expects;
    n_stream;
  }

let of_points ops =
  Array.map
    (fun op ->
      let k = Gen.key op in
      match Gen.kind op with
      | 0 -> Get k
      | 1 -> Put (k, Gen.arg op)
      | 2 -> Del k
      | _ -> Range (k, k + Gen.arg op - 1))
    ops

(* Transfers interleaved one for one with group audits. *)
let of_bank (b : Gen.bank) xfers audits =
  Array.init
    (2 * Array.length xfers)
    (fun i ->
      if i land 1 = 0 then
        let t = xfers.(i / 2) in
        let g = Gen.xfer_group t in
        Xfer
          ( Gen.account b g (Gen.xfer_src t),
            Gen.account b g (Gen.xfer_dst t),
            Gen.xfer_amount t )
      else
        let a = audits.(i / 2 mod Array.length audits) in
        let g = Gen.audit_group a in
        if Gen.audit_is_mget a then
          Mget (Array.init b.accounts (fun j -> Gen.account b g j))
        else Range (Gen.account b g 0, Gen.account b g (b.accounts - 1)))

(* {1 The rungs} *)

let names prefix = Array.map (fun s -> Trace.name (prefix ^ s))

let dstruct_sp = names "dstruct." [| "find"; "update"; "multifind"; "range"; "exec" |]

let txn_sp = names "txn." [| "get"; "write"; "mget"; "range"; "exec" |]

let sp_mount_exec = Trace.name "mount.exec"

let sp_mount_txn = Trace.name "mount.exec_txn"

let is r v = match r with Some x -> x = v | None -> false

let dstruct_item tr h it ex =
  let t0 = Rng.now_ns () in
  match (it, ex) with
    | Get k, X_get v ->
        let r = B.find h k in
        Trace.span tr dstruct_sp.(0) ~parent:(-1) t0 (Rng.now_ns ());
        r = v
    | Put (k, v), X_bool b ->
        let r = B.insert h k v in
        Trace.span tr dstruct_sp.(1) ~parent:(-1) t0 (Rng.now_ns ());
        r = b
    | Del k, X_bool b ->
        let r = B.delete h k in
        Trace.span tr dstruct_sp.(1) ~parent:(-1) t0 (Rng.now_ns ());
        r = b
    | Mget ks, X_vals vs ->
        let r = B.multifind h ks in
        Trace.span tr dstruct_sp.(2) ~parent:(-1) t0 (Rng.now_ns ());
        r = vs
    | Range (lo, hi), X_pairs ps ->
        let r = B.range h lo hi in
        Trace.span tr dstruct_sp.(3) ~parent:(-1) t0 (Rng.now_ns ());
        r = ps
    | Xfer (a, c, x), X_xfer (ba, bc) ->
        let ra = B.find h a in
        let rc = B.find h c in
        let d1 = B.delete h a in
        let i1 = B.insert h a (ba - x) in
        let d2 = B.delete h c in
        let i2 = B.insert h c (bc + x) in
        Trace.span tr dstruct_sp.(4) ~parent:(-1) t0 (Rng.now_ns ());
        is ra ba && is rc bc && d1 && i1 && d2 && i2
    | _ -> false

let txn_item tr store it ex ops steps =
  let t0 = Rng.now_ns () in
  match (it, ex) with
  | Get k, X_get v ->
      let r = Txn.get store k in
      Trace.span tr txn_sp.(0) ~parent:(-1) t0 (Rng.now_ns ());
      r = v
  | Put (k, v), X_bool b ->
      let r = Txn.put store k v in
      Trace.span tr txn_sp.(1) ~parent:(-1) t0 (Rng.now_ns ());
      r = b
  | Del k, X_bool b ->
      let r = Txn.del store k in
      Trace.span tr txn_sp.(1) ~parent:(-1) t0 (Rng.now_ns ());
      r = b
  | Mget ks, X_vals vs ->
      let r = Txn.mget store ks in
      Trace.span tr txn_sp.(2) ~parent:(-1) t0 (Rng.now_ns ());
      r = vs
  | Range (lo, hi), X_pairs ps ->
      let r = Txn.range store lo hi in
      Trace.span tr txn_sp.(3) ~parent:(-1) t0 (Rng.now_ns ());
      r = ps
  | Xfer _, X_xfer _ -> (
      let r = Txn.exec store ops in
      Trace.span tr txn_sp.(4) ~parent:(-1) t0 (Rng.now_ns ());
      match r with
      | Txn.Committed c -> c.steps = steps
      | Txn.Aborted _ -> false)
  | _ -> false

let mount_item tr m it cmds expected =
  let t0 = Rng.now_ns () in
  match it with
  | Xfer _ -> (
      let r = M.exec_txn m ~token:0 cmds in
      Trace.span tr sp_mount_txn ~parent:(-1) t0 (Rng.now_ns ());
      match (r, expected) with
      | P.Arr (P.Int vs :: rest), P.Arr (_ :: want) -> vs > 0 && rest = want
      | _ -> false)
  | _ -> (
      match cmds with
      | [ c ] ->
          let r = M.exec m c in
          Trace.span tr sp_mount_exec ~parent:(-1) t0 (Rng.now_ns ());
          r = expected
      | _ -> false)

let codec_item tr s it ex lines =
  Buffer.clear s.Wire.out;
  let t0 = Rng.now_ns () in
  let req = Trace.reserve tr in
  for j = 0 to Array.length lines - 1 do
    Wire.handle_traced tr ~parent:req s lines.(j)
  done;
  Trace.fill tr req Wire.sp_request ~parent:(-1) t0 (Rng.now_ns ());
  let buf = s.Wire.out in
  match (it, ex) with
  | Get _, X_get v -> Oracle.get_ok buf (Option.value v ~default:absent)
  | Put _, X_bool b -> Oracle.put_ok buf ~present:(not b)
  | Del _, X_bool b -> Oracle.del_ok buf ~present:b
  | Mget _, X_vals vs -> Oracle.vals_ok buf vs
  | Range _, X_pairs ps -> Oracle.pairs_ok buf ps
  | Xfer _, X_xfer (ba, bc) -> Oracle.xfer_ok buf ~ba ~bb:bc ~last_vs:0 > 0
  | _ -> false

type rung = {
  tr : Trace.t;
  mutable alloc_b : float;  (** bytes allocated per op over the workload's own stream *)
  mutable failed : int;
}

(* Replay [s] on one rung: [run tr i] executes item [i], records its
   span in [tr] and says whether its result agreed with the model.  The
   stream leaves the store as it found it, so it runs twice: once to
   warm caches and the heap, unrecorded, then measured.  [pinned] holds
   a snapshot open in a second domain for the whole replay. *)
let replay ~pinned s tid run =
  let r = { tr = Trace.create ~cap:4096 tid; alloc_b = 0.; failed = 0 } in
  let p = if pinned then Some (Wire.parker ()) else None in
  Option.iter (fun p -> Wire.pin p (fun () -> true)) p;
  let go tr lo hi =
    for i = lo to hi - 1 do
      if not (run tr i) then r.failed <- r.failed + 1
    done
  in
  go (Trace.create ~cap:0 tid) 0 (Array.length s.items);
  Gc.full_major ();
  let go = go r.tr in
  let w0 = Gc.minor_words () in
  go 0 s.n_stream;
  r.alloc_b <- (Gc.minor_words () -. w0) *. 8. /. Float.of_int (max 1 s.n_stream);
  go s.n_stream (Array.length s.items);
  Option.iter
    (fun p ->
      ignore (Wire.release p);
      Wire.stop p)
    p;
  r

type result = {
  dstruct : rung;
  txn : rung;
  mount : rung;
  codec : rung;
  attempted : int;
  correct : bool;  (** every rung's final state matched the model *)
}

let run ~pinned (pre : Gen.prefill) s =
  let n_hint = Array.length pre.order in
  let final = Array.copy pre.shadow in
  Array.iter (fun it -> ignore (model final it)) s.items;
  let fresh () = Gc.full_major () in
  fresh ();
  let h = B.create ~n_hint () in
  Array.iter (fun k -> ignore (B.insert h k pre.shadow.(k))) pre.order;
  let dstruct = replay ~pinned s 11 (fun tr i -> dstruct_item tr h s.items.(i) s.expects.(i)) in
  let ok1 = Oracle.state_ok final (B.to_sorted_list h) in
  fresh ();
  let h = B.create ~n_hint () in
  let store = Txn.Store.create (module B) h in
  Array.iter (fun k -> ignore (Txn.put store k pre.shadow.(k))) pre.order;
  let txn =
    replay ~pinned s 12 (fun tr i ->
        txn_item tr store s.items.(i) s.expects.(i) s.txops.(i) s.steps.(i))
  in
  let ok2 = Oracle.state_ok final (B.to_sorted_list h) in
  fresh ();
  let m, _ = Wire.build pre in
  let mount =
    replay ~pinned s 13 (fun tr i -> mount_item tr m s.items.(i) s.cmds.(i) s.replies.(i))
  in
  let ok3 = Oracle.state_ok final (M.dump m) in
  fresh ();
  let m, _ = Wire.build pre in
  let sess = Wire.session m in
  let codec = replay ~pinned s 14 (fun tr i -> codec_item tr sess s.items.(i) s.expects.(i) s.wire.(i)) in
  let ok4 = Oracle.state_ok final (M.dump m) in
  {
    dstruct;
    txn;
    mount;
    codec;
    attempted = 8 * Array.length s.items;
    correct = ok1 && ok2 && ok3 && ok4;
  }

let mean r nm = Trace.mean_ns r.tr nm

(* The per-layer timing and allocation metrics, by name. *)
let metrics res =
  [
    ("dstruct.find_ns", mean res.dstruct dstruct_sp.(0));
    ("dstruct.update_ns", mean res.dstruct dstruct_sp.(1));
    ("dstruct.multifind_ns", mean res.dstruct dstruct_sp.(2));
    ("dstruct.range_ns", mean res.dstruct dstruct_sp.(3));
    ("dstruct.alloc_b", res.dstruct.alloc_b);
    ("txn.get_ns", mean res.txn txn_sp.(0));
    ("txn.write_ns", mean res.txn txn_sp.(1));
    ("txn.mget_ns", mean res.txn txn_sp.(2));
    ("txn.range_ns", mean res.txn txn_sp.(3));
    ("txn.exec_ns", mean res.txn txn_sp.(4));
    ("txn.alloc_b", res.txn.alloc_b);
    ("mount.exec_ns", mean res.mount sp_mount_exec);
    ("mount.exec_txn_ns", mean res.mount sp_mount_txn);
    ("mount.alloc_b", res.mount.alloc_b);
    ("protocol.parse_ns", mean res.codec Wire.sp_parse);
    ("protocol.render_ns", mean res.codec Wire.sp_render);
    ("protocol.alloc_b", res.codec.alloc_b);
  ]
