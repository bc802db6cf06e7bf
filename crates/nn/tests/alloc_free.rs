//! Proves the inference hot path is allocation-free after warm-up.
//!
//! A counting global allocator wraps the system allocator; after two
//! warm-up calls size the [`InferBuffers`] and the logits tensor,
//! repeated inference through the full IL architecture (batched forward
//! pass, then an in-place softmax) must perform zero heap allocations.

use icoil_nn::loss::softmax_in_place;
use icoil_nn::{init, InferBuffers, Network, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn il_inference_is_allocation_free_after_warmup() {
    // The paper's IL architecture at the BEV input size used in-sim.
    let net = Network::il_architecture((2, 32, 32), 21, 0);
    let x = init::uniform(vec![1, 2, 32, 32], 0.0, 1.0, 1);
    let samples = [x.data()];
    let mut buf = InferBuffers::new();
    let mut out = Tensor::default();
    let infer_proba = |buf: &mut InferBuffers, out: &mut Tensor| {
        net.forward_batch_into(&samples, &[2, 32, 32], buf, out);
        softmax_in_place(out);
    };

    // Warm-up: first call sizes every buffer, second call confirms the
    // sizes are stable before counting starts.
    infer_proba(&mut buf, &mut out);
    infer_proba(&mut buf, &mut out);

    // The counter is process-wide and the libtest controller thread can
    // allocate concurrently (e.g. its slow-test watchdog under CPU
    // load), so measure several 10-frame windows and require one clean
    // window: a genuine per-frame allocation in the hot path taints
    // every window, harness noise does not.
    let mut checksum = 0.0f32;
    let mut cleanest = usize::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..10 {
            infer_proba(&mut buf, &mut out);
            checksum += out.data()[0];
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        cleanest = cleanest.min(after - before);
        if cleanest == 0 {
            break;
        }
    }
    assert!(checksum.is_finite());
    assert_eq!(
        cleanest, 0,
        "inference allocated at least {cleanest} times in every 10-frame window"
    );
}
