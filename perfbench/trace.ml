(* Spans the benchmark records around its own calls into each layer.
   Every span adds to its name's running total; the first [cap] spans
   are also kept whole (start, duration, parent) and written out as
   Chrome trace events when the run ends.  Recording allocates
   nothing, and each domain owns its recorder. *)

let names = ref [||]

(* Span names are interned before any recording starts. *)
let name s =
  match Array.find_index (String.equal s) !names with
  | Some i -> i
  | None ->
      names := Array.append !names [| s |];
      Array.length !names - 1

let max_names = 64

type t = {
  tid : int;
  cap : int;
  id : int array;
  start : int array;
  dur : int array;
  parent : int array;
  mutable len : int;
  sum : int array;
  cnt : int array;
}

let create ?(cap = 8192) tid =
  {
    tid;
    cap;
    id = Array.make cap 0;
    start = Array.make cap 0;
    dur = Array.make cap 0;
    parent = Array.make cap 0;
    len = 0;
    sum = Array.make max_names 0;
    cnt = Array.make max_names 0;
  }

(* Reserve the next kept slot, so that a parent's index is known before
   its children are recorded; -1 once the kept spans are full. *)
let reserve t =
  if t.len >= t.cap then -1
  else begin
    t.len <- t.len + 1;
    t.len - 1
  end

(* Record the span [t0, t1] (ns) in slot [i] (from [reserve]), child of
   span [parent] (-1 for none). *)
let fill t i nm ~parent t0 t1 =
  t.sum.(nm) <- t.sum.(nm) + (t1 - t0);
  t.cnt.(nm) <- t.cnt.(nm) + 1;
  if i >= 0 then begin
    t.id.(i) <- nm;
    t.start.(i) <- t0;
    t.dur.(i) <- t1 - t0;
    t.parent.(i) <- parent
  end

let span t nm ~parent t0 t1 = fill t (reserve t) nm ~parent t0 t1

(* Mean span length in ns (0 when none was recorded). *)
let mean_ns t nm = if t.cnt.(nm) = 0 then 0. else Float.of_int t.sum.(nm) /. Float.of_int t.cnt.(nm)

let write_chrome path ts =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
          !names.(t.id.(i)) t.tid
          (Float.of_int t.start.(i) /. 1000.)
          (Float.of_int t.dur.(i) /. 1000.)
          i t.parent.(i)
      done)
    ts;
  output_string oc "\n]}\n";
  close_out oc
