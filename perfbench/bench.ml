(* perfbench: an in-process benchmark of the store, from a wire line down
   to the versioned structure.  See README.md for the workloads, the
   metrics and how to run it; the last line of standard output is the
   run's JSON result. *)

module P = Server.Protocol
module M = Server.Mount
module Cs = Verlib.Chainscan

(* Program counters read around the timed phase of a traced run. *)
type counters = {
  vstats : int array;
  locks : int array;  (** acquires, contended, helps *)
  retries : int;
  aborts : int;
  minor : float;
  promoted : float;
  majors : int;
  heap_words : int;
}

let verlib_counters =
  Verlib.Stats.[| snapshots; direct_installed; indirect_created; shortcuts; truncations |]

let counters () =
  let st = Gc.quick_stat () in
  let sites = Flock.Lock.site_summaries () in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sites in
  {
    vstats = Array.map Verlib.Stats.total verlib_counters;
    locks =
      Flock.Lock.[| sum (fun s -> s.sm_acquires); sum (fun s -> s.sm_contended); sum (fun s -> s.sm_helps) |];
    retries = Txn.validation_retries ();
    aborts = Txn.aborts ();
    minor = st.Gc.minor_words;
    promoted = st.Gc.promoted_words;
    majors = st.Gc.major_collections;
    heap_words = st.Gc.heap_words;
  }

type ctx = {
  seconds : int;
  traced : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  win : Win.t;
  mutable timed_ops : int;
  mutable timed_ns : int;
  mutable setup_times : float list;  (** s *)
  mutable before : counters option;
  mutable after : counters option;
  mutable forced : int * float * float;
      (** major cycles, minor and promoted words of forced collections
          inside the counter window *)
  mutable census : Cs.census option;
  mutable pending : int;
  mutable scan_ns : int list;
  mutable spans : Trace.t list;
}

let fail ctx what =
  Printf.eprintf "perfbench: check failed: %s\n%!" what;
  ctx.correct <- false

(* Build and prefill the mount, timed.  Set-up time is the median of
   the run's own build and four more made after the run, once its peak
   RSS has been read: builds before the run leave freed memory that the
   process keeps, and it would count in the run's peak (kv-point's peak
   reads 56 MB after one build, 77 MB after three). *)
let setup ctx pre =
  Gc.full_major ();
  let t0 = Rng.now_ns () in
  let r = Wire.build pre in
  ctx.setup_times <- (Float.of_int (Rng.now_ns () - t0) /. 1e9) :: ctx.setup_times;
  r

let setups_after_run ctx pre =
  for _ = 1 to 4 do
    ignore (setup ctx pre)
  done

let begin_timed ctx = if ctx.traced then ctx.before <- Some (counters ())

(* At the end of the timed phase, while a pinned snapshot is still
   held: the counters, the chain census and the epoch backlog. *)
let end_timed ctx m =
  if ctx.traced then begin
    ctx.after <- Some (counters ());
    ctx.census <- Some (Cs.census_of_iter (M.iter_vptrs m));
    ctx.pending <- Flock.Epoch.pending_count ()
  end

(* A major collection the benchmark forces, then a shift of the minor
   heap's fill by a share of it that differs from round to round.  The
   collection empties the minor heap, and every round allocates alike,
   so without the shift each round's minor collections would land on
   the same ops: which RANGEs they delay, and so the reads' p99, would
   be fixed by the seed.  Inside the counter window the cycles and
   words of both are kept out of the program's GC figures. *)
let forced_full_major ctx ~round =
  let a = Gc.quick_stat () in
  Gc.full_major ();
  let minor = (Gc.get ()).Gc.minor_heap_size in
  let words = minor * ((round * 40503) land 0xFFFF) / 0x10000 in
  for _ = 1 to words / 65 do
    ignore (Sys.opaque_identity (Array.make 64 0))
  done;
  let b = Gc.quick_stat () in
  if ctx.before <> None && ctx.after = None then begin
    let n, minor, promoted = ctx.forced in
    ctx.forced <-
      ( n + b.Gc.major_collections - a.Gc.major_collections,
        minor +. b.Gc.minor_words -. a.Gc.minor_words,
        promoted +. b.Gc.promoted_words -. a.Gc.promoted_words )
  end

let time_scan ctx m =
  let t0 = Rng.now_ns () in
  ignore (M.dump m);
  ctx.scan_ns <- [ Rng.now_ns () - t0 ]

(* The final state equals the shadow, the structure's own check passes,
   and the chain census finds no violation. *)
let final_checks ctx m h shadow =
  if not (Oracle.state_ok shadow (M.dump m)) then fail ctx "final state differs from the shadow";
  if not (Oracle.structure_ok (fun () -> Dstruct.Btree.check h)) then
    fail ctx "Btree.check";
  let c = Cs.census_of_iter (M.iter_vptrs m) in
  if not (Oracle.census_ok c) then
    fail ctx (Printf.sprintf "chain census: %d violations" c.Cs.c_violation_count)

let new_trace ctx tid = if ctx.traced then Some (Trace.create tid) else None

(* Send [lines] as one request and time it; the replies land in
   [s.out]. *)
let request tr s lines =
  Buffer.clear s.Wire.out;
  let t0 = Rng.now_ns () in
  (match tr with
  | None ->
      for j = 0 to Array.length lines - 1 do
        Wire.handle s lines.(j)
      done
  | Some tr ->
      let req = Trace.reserve tr in
      for j = 0 to Array.length lines - 1 do
        Wire.handle_traced tr ~parent:req s lines.(j)
      done;
      Trace.fill tr req Wire.sp_request ~parent:(-1) t0 (Rng.now_ns ()));
  Rng.now_ns () - t0

(* {1 kv-point and snapshot-pinned} *)

(* A window is one whole round: a snapshot-pinned round is not uniform
   inside (its first writes truncate the chains the previous pin left),
   so a part of a round would not be like the next part. *)
let point_round ctx s shadow ops lb tr ~timed =
  let one = [| "" |] and t0 = Rng.now_ns () in
  for i = 0 to Array.length ops - 1 do
    let op = ops.(i) in
    one.(0) <- Wire.point_line lb op;
    let ns = request tr s one in
    if not (Oracle.point_step shadow op s.Wire.out) then ctx.failed <- ctx.failed + 1;
    if timed then begin
      let k = Gen.kind op in
      Hist.add (if k = Gen.k_get || k = Gen.k_range then ctx.win.read else ctx.win.write) ns
    end
  done;
  if timed then Win.close ctx.win ~ops:(Array.length ops) ~ns:(Rng.now_ns () - t0);
  ctx.attempted <- ctx.attempted + Array.length ops;
  if timed then ctx.timed_ops <- ctx.timed_ops + Array.length ops

let deadline ctx = ctx.timed_ns >= ctx.seconds * 1_000_000_000

let kv_point ctx rng =
  let spec = Gen.kv_point in
  let pre = Gen.point_prefill spec rng in
  let ops = Gen.point_round spec rng pre in
  let m, h = setup ctx pre in
  let shadow = Array.copy pre.shadow in
  let s = Wire.session m and lb = Buffer.create 64 in
  let tr = new_trace ctx 1 in
  point_round ctx s shadow ops lb None ~timed:false;
  begin_timed ctx;
  let t0 = Rng.now_ns () in
  while not (deadline ctx) do
    point_round ctx s shadow ops lb tr ~timed:true;
    ctx.timed_ns <- Rng.now_ns () - t0
  done;
  end_timed ctx m;
  time_scan ctx m;
  final_checks ctx m h shadow;
  ctx.spans <- Option.to_list tr;
  (pre, (fun () -> Ladder.of_points ops), false)

(* Each round runs under a snapshot that a second domain pins when the
   round starts; at its end that domain folds over the whole map at the
   pinned stamp ([Btree.scan], no list built), which must show the
   shadow as it was then. *)
let snapshot_pinned ctx rng =
  let spec = Gen.snapshot_pinned in
  let pre = Gen.point_prefill spec rng in
  let ops = Gen.point_round spec rng pre in
  let m, h = setup ctx pre in
  let shadow = Array.copy pre.shadow in
  let s = Wire.session m and lb = Buffer.create 64 in
  let tr = new_trace ctx 1 in
  let parker = Wire.parker () in
  let at_pin = Array.copy shadow and seen = Bytes.create spec.universe in
  let scan () =
    Oracle.fold_ok seen at_pin (fun f -> Dstruct.Btree.scan h ~init:0 ~f)
  in
  let round ~timed =
    Array.blit shadow 0 at_pin 0 (Array.length shadow);
    Wire.pin parker scan;
    let t0 = Rng.now_ns () in
    point_round ctx s shadow ops lb (if timed then tr else None) ~timed;
    if timed then ctx.timed_ns <- ctx.timed_ns + (Rng.now_ns () - t0);
    let last = timed && deadline ctx in
    if last then end_timed ctx m;
    let ok, scan_ns = Wire.release parker in
    ctx.attempted <- ctx.attempted + 1;
    if not ok then ctx.failed <- ctx.failed + 1;
    if timed then ctx.scan_ns <- scan_ns :: ctx.scan_ns;
    last
  in
  (* The heap takes three rounds to grow to its steady size under the
     pin; a major collection after each round, outside the timed
     windows, keeps the peak from climbing with the number of rounds a
     run fits in. *)
  let rounds = ref 0 in
  let round ~timed =
    let last = round ~timed in
    incr rounds;
    forced_full_major ctx ~round:!rounds;
    last
  in
  for _ = 1 to 3 do
    ignore (round ~timed:false)
  done;
  begin_timed ctx;
  while not (round ~timed:true) do
    ()
  done;
  Wire.stop parker;
  final_checks ctx m h shadow;
  ctx.spans <- Option.to_list tr;
  (pre, (fun () -> Ladder.of_points ops), true)

(* {1 txn-bank} *)

let txn_bank ctx rng =
  let b = Gen.txn_bank in
  let pre = Gen.bank_prefill b rng in
  let xfers = Gen.bank_round b rng in
  let audits = Gen.audit_round b rng in
  let m, h = setup ctx pre in
  let bal = Array.copy pre.shadow in
  let last_vs = ref 0 in
  let ws = Wire.session m and lb = Buffer.create 64 and lines = Array.make 8 "" in
  let audited = Atomic.make 0 and a0 = ref 0 and w0 = ref 0 in
  let writer_round tr ~timed =
    w0 := Rng.now_ns ();
    for i = 0 to Array.length xfers - 1 do
      let t = xfers.(i) in
      let g = Gen.xfer_group t and x = Gen.xfer_amount t in
      let a = Gen.account b g (Gen.xfer_src t) and c = Gen.account b g (Gen.xfer_dst t) in
      let ba = bal.(a) and bc = bal.(c) in
      Wire.xfer_lines lb lines ~a ~ba ~c ~bc ~x;
      let ns = request tr ws lines in
      let vs = Oracle.xfer_ok ws.Wire.out ~ba ~bb:bc ~last_vs:!last_vs in
      if vs = 0 then ctx.failed <- ctx.failed + 1
      else begin
        last_vs := vs;
        bal.(a) <- ba - x;
        bal.(c) <- bc + x
      end;
      if timed then begin
        Hist.add ctx.win.write ns;
        (* A window is half a round of transfers plus the audits the
           other domain finished meanwhile. *)
        if (i + 1) mod b.transfers = 0 then begin
          let t = Rng.now_ns () and a = Atomic.get audited in
          Win.close ctx.win ~ops:(b.transfers + a - !a0) ~ns:(t - !w0);
          w0 := t;
          a0 := a
        end
      end
    done;
    ctx.attempted <- ctx.attempted + Array.length xfers;
    if timed then ctx.timed_ops <- ctx.timed_ops + Array.length xfers
  in
  (* One auditor round; returns the failed audits.  The auditor's
     windows are four rounds long. *)
  let audit_round s lb win tr ~timed =
    let one = [| "" |] and failed = ref 0 in
    Array.iter
      (fun a ->
        let g = Gen.audit_group a and mget = Gen.audit_is_mget a in
        one.(0) <- Wire.audit_line lb b g ~mget;
        let ns = request tr s one in
        if not (Oracle.group_ok b s.Wire.out g ~mget) then incr failed;
        if timed then begin
          Hist.add win.Win.read ns;
          Atomic.incr audited
        end)
      audits;
    if timed && Atomic.get audited mod (4 * b.audits) = 0 then Win.close win ~ops:0 ~ns:0;
    !failed
  in
  let wtr = new_trace ctx 1 in
  writer_round None ~timed:false;
  ctx.failed <- ctx.failed + audit_round ws lb (Win.create ()) None ~timed:false;
  ctx.attempted <- ctx.attempted + Array.length audits;
  let go = Atomic.make false and stop = Atomic.make false in
  let auditor =
    Domain.spawn (fun () ->
        let s = Wire.session m and lb = Buffer.create 256 and win = Win.create () in
        let tr = new_trace ctx 2 in
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let rounds = ref 0 and failed = ref 0 in
        while not (Atomic.get stop) do
          failed := !failed + audit_round s lb win tr ~timed:true;
          incr rounds
        done;
        (!rounds * Array.length audits, !failed, win, tr))
  in
  begin_timed ctx;
  let t0 = Rng.now_ns () in
  Atomic.set go true;
  while not (deadline ctx) do
    writer_round wtr ~timed:true;
    ctx.timed_ns <- Rng.now_ns () - t0
  done;
  Atomic.set stop true;
  let n_audited, afailed, awin, atr = Domain.join auditor in
  ctx.timed_ns <- Rng.now_ns () - t0;
  ctx.timed_ops <- ctx.timed_ops + n_audited;
  ctx.attempted <- ctx.attempted + n_audited;
  ctx.failed <- ctx.failed + afailed;
  Win.take_reads ~into:ctx.win awin;
  end_timed ctx m;
  time_scan ctx m;
  final_checks ctx m h bal;
  ctx.spans <- Option.to_list wtr @ Option.to_list atr;
  (pre, (fun () -> Ladder.of_bank b xfers audits), false)

(* {1 Results} *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  Float.of_int kb /. 1024.

let end_to_end ctx ~rss =
  let w = ctx.win and lat = Win.slow_latency and tail = Win.tail_latency in
  [
    ("setup_s", Win.median ctx.setup_times, "s");
    ("ops_per_s", Win.slow_rate w.rates, "1/s");
    ("read_p50_us", lat w.read_p50, "us");
    ("read_p99_us", tail w.read_p99, "us");
    ("write_p50_us", lat w.write_p50, "us");
    ("write_p99_us", tail w.write_p99, "us");
    ("peak_rss_mb", rss, "MB");
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ns" then "ns"
  else if ends ".alloc_b" then "B/op"
  else if ends "_per_op" then "words/op"
  else if ends "_ms" then "ms"
  else if ends "_mb" then "MB"
  else if String.starts_with ~prefix:"flock.lock_" name then "1/op"
  else if List.mem name [ "verlib.snapshots"; "verlib.direct_installed"; "verlib.indirect_created"; "verlib.shortcuts"; "verlib.truncations" ]
  then "1/kop"
  else "count"

let per_layer ctx ladder =
  let c0 = Option.get ctx.before and c1 = Option.get ctx.after in
  let census = Option.get ctx.census in
  let forced_majors, forced_minor, forced_promoted = ctx.forced in
  let ops = Float.of_int (max 1 ctx.timed_ops) in
  let per d = Float.of_int d /. ops in
  let vnames = [| "snapshots"; "direct_installed"; "indirect_created"; "shortcuts"; "truncations" |] in
  Ladder.metrics ladder
  @ [
      ("txn.validation_retries", Float.of_int (c1.retries - c0.retries));
      ("txn.aborts", Float.of_int (c1.aborts - c0.aborts));
    ]
  @ Array.to_list
      (Array.mapi
         (fun i n -> ("verlib." ^ n, 1000. *. per (c1.vstats.(i) - c0.vstats.(i))))
         vnames)
  @ [
      ("verlib.versions", Float.of_int census.Cs.c_versions);
      ("verlib.max_chain", Float.of_int census.Cs.c_max_chain);
      ("verlib.pinned_scan_ms", Win.median (List.map (fun ns -> Float.of_int ns /. 1e6) ctx.scan_ns));
      ("flock.lock_acquires", per (c1.locks.(0) - c0.locks.(0)));
      ("flock.lock_contended", per (c1.locks.(1) - c0.locks.(1)));
      ("flock.lock_helps", per (c1.locks.(2) - c0.locks.(2)));
      ("flock.epoch_pending", Float.of_int ctx.pending);
      ("gc.minor_words_per_op", (c1.minor -. c0.minor -. forced_minor) /. ops);
      ("gc.promoted_words_per_op", (c1.promoted -. c0.promoted -. forced_promoted) /. ops);
      ("gc.major_collections", Float.of_int (c1.majors - c0.majors - forced_majors));
      ("gc.heap_mb", Float.of_int (c1.heap_words * 8) /. 1048576.);
    ]
  |> List.map (fun (n, v) -> (n, v, unit_of n))

let print_result ~correct ~attempted ~failed metrics =
  let number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  let ok = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  List.iter
    (fun (n, v, u) -> Printf.eprintf "  %-28s %14.4f %s\n" n v u)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct && ok) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
              (if Float.is_finite v then number v else "0")
              u)
          metrics))

let workloads = [ ("kv-point", kv_point); ("txn-bank", txn_bank); ("snapshot-pinned", snapshot_pinned) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and traced = ref 0 in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " kv-point | txn-bank | snapshot-pinned");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int traced, " 1: per-layer metrics from a traced run");
      ("--selftest", Arg.Set selftest, " run the oracles' negative self-tests only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let tests = Oracle.selftest () in
  let broken = List.filter (fun (_, ok) -> not ok) tests in
  List.iter (fun (n, _) -> Printf.eprintf "perfbench: oracle self-test failed: %s\n" n) broken;
  if !selftest then begin
    Printf.printf "%d oracle self-tests, %d failed\n" (List.length tests) (List.length broken);
    exit (if broken = [] then 0 else 1)
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline "perfbench: --workload must be kv-point, txn-bank or snapshot-pinned";
        exit 2
  in
  if !seconds < 1 || (!traced <> 0 && !traced <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  Verlib.reset ();
  let ctx =
    {
      seconds = !seconds;
      traced = !traced = 1;
      attempted = 0;
      failed = 0;
      correct = broken = [];
      win = Win.create ();
      timed_ops = 0;
      timed_ns = 0;
      setup_times = [];
      before = None;
      after = None;
      forced = (0, 0., 0.);
      census = None;
      pending = 0;
      scan_ns = [];
      spans = [];
    }
  in
  (* [items] builds the ladder's stream; only a traced run needs it. *)
  let pre, items, pinned = run ctx (Rng.create !seed) in
  let rss = peak_rss_mb () in
  setups_after_run ctx pre;
  let e2e = end_to_end ctx ~rss in
  Printf.eprintf "perfbench: %s seed %d%s: %d ops attempted, %d failed\n" !workload !seed
    (if ctx.traced then " (traced)" else "")
    ctx.attempted ctx.failed;
  if not ctx.traced then print_result ~correct:ctx.correct ~attempted:ctx.attempted ~failed:ctx.failed e2e
  else begin
    (* The traced run's own end-to-end figures, against an untraced run
       of the same seed, give the tracing overhead. *)
    List.iter (fun (n, v, u) -> Printf.eprintf "  traced %-21s %14.4f %s\n" n v u) e2e;
    let s = Ladder.stream (Rng.create (!seed + 1)) pre (items ()) in
    let lad = Ladder.run ~pinned pre s in
    let rungs = [ lad.dstruct; lad.txn; lad.mount; lad.codec ] in
    let lfailed = List.fold_left (fun a (r : Ladder.rung) -> a + r.failed) 0 rungs in
    if not lad.correct then fail ctx "ladder: a rung's final state differs from the model";
    (try
       let out = "perfbench/_out" in
       if not (Sys.file_exists out) then Sys.mkdir out 0o755;
       let path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
       Trace.write_chrome path (ctx.spans @ List.map (fun (r : Ladder.rung) -> r.tr) rungs);
       Printf.eprintf "perfbench: spans written to %s\n" path
     with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e);
    print_result ~correct:ctx.correct
      ~attempted:(ctx.attempted + lad.attempted)
      ~failed:(ctx.failed + lfailed) (per_layer ctx lad)
  end
