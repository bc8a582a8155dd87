//! Per-job wait context — the equivalent of OpenSSL's `ASYNC_WAIT_CTX`
//! extended with the paper's two new members, `callback` and
//! `callback_arg` (§4.4), plus the parked crypto result that the engine
//! stores between pause and resume.
//!
//! Completion delivery goes through one pluggable
//! [`Notifier`](crate::notify::Notifier) slot: `set_callback` (the
//! `SSL_set_async_callback` analogue) and `set_fd` are adapters over
//! the same slot, so the context is agnostic of the notification scheme
//! and the last-registered mechanism wins.

use crate::notify::{Notifier, VirtualFd};
use qtls_qat::CryptoResult;
use qtls_sync::Mutex;
use std::sync::Arc;

/// The application-level notification callback (paper §4.4): invoked by
/// the QAT response callback with `callback_arg` to enqueue the async
/// handler without touching the kernel.
pub type AsyncCallback = Arc<dyn Fn(u64) + Send + Sync>;

/// Adapter presenting the paper's `(callback, callback_arg)` pair as a
/// [`Notifier`].
struct CallbackNotifier(AsyncCallback);

impl Notifier for CallbackNotifier {
    fn notify(&self, token: u64) {
        (self.0)(token)
    }
}

#[derive(Default)]
struct Inner {
    /// Result parked by the QAT response callback, consumed at resume.
    result: Option<CryptoResult>,
    /// Set when a submission failed with a full ring; the application
    /// must reschedule the job to retry (§3.2 "failure of crypto
    /// submission").
    needs_retry: bool,
    /// Completion delivery: the registered notifier and its token.
    notifier: Option<(Arc<dyn Notifier>, u64)>,
    /// Free-form user tag (diagnostics/tests).
    tag: Option<u64>,
    /// Trace annotation: the shard the last submission from this job
    /// was routed to, and how it left the submit queue (0 = batched,
    /// 1 = bypass, 2 = backpressure retry). Set by the engine only for
    /// sampled/traced jobs.
    submit_info: Option<(u32, u64)>,
}

/// Wait context shared between the job, the engine and the application.
#[derive(Default)]
pub struct WaitCtx {
    inner: Mutex<Inner>,
}

impl WaitCtx {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// `SSL_set_async_callback` equivalent: register the kernel-bypass
    /// callback and its argument (the async-handler information).
    pub fn set_callback(&self, cb: AsyncCallback, arg: u64) {
        self.set_notifier(Arc::new(CallbackNotifier(cb)), arg);
    }

    /// Set-FD API: associate an eventfd-like FD for FD-based
    /// notification (the FD itself is the [`Notifier`]).
    pub fn set_fd(&self, fd: Arc<VirtualFd>) {
        let token = fd.id;
        self.set_notifier(fd, token);
    }

    /// Register the completion-delivery mechanism directly. Replaces
    /// whatever was registered before (last one wins).
    pub fn set_notifier(&self, notifier: Arc<dyn Notifier>, token: u64) {
        self.inner.lock().notifier = Some((notifier, token));
    }

    /// Is a completion-delivery mechanism registered?
    pub fn has_notifier(&self) -> bool {
        self.inner.lock().notifier.is_some()
    }

    /// Park a crypto result (called by the QAT response callback) and
    /// fire the registered notifier, if any. The notifier is chosen
    /// under the lock but fired outside it, so a notification handler
    /// may re-enter the context.
    pub fn complete(&self, result: CryptoResult) {
        let notification = {
            let mut inner = self.inner.lock();
            inner.result = Some(result);
            inner.notifier.clone()
        };
        if let Some((notifier, token)) = notification {
            notifier.notify(token);
        }
    }

    /// Take the parked result (called by the engine right after resume).
    pub fn take_result(&self) -> Option<CryptoResult> {
        self.inner.lock().result.take()
    }

    /// Is a result parked and not yet consumed?
    pub fn has_result(&self) -> bool {
        self.inner.lock().result.is_some()
    }

    /// Mark that the submission failed and must be retried.
    pub fn set_retry(&self) {
        self.inner.lock().needs_retry = true;
    }

    /// Consume the retry flag.
    pub fn take_retry(&self) -> bool {
        std::mem::take(&mut self.inner.lock().needs_retry)
    }

    /// Trace annotation (connection tracing): which shard the last
    /// submission went to and whether it bypassed the batch queue
    /// (1), was batched (0), or retried on backpressure (2).
    pub fn set_submit_info(&self, shard: u32, path: u64) {
        self.inner.lock().submit_info = Some((shard, path));
    }

    /// Read the last submit annotation, if the engine recorded one.
    pub fn submit_info(&self) -> Option<(u32, u64)> {
        self.inner.lock().submit_info
    }

    /// Attach a diagnostic tag.
    pub fn set_ready_marker(&self, tag: u64) {
        self.inner.lock().tag = Some(tag);
    }

    /// Read the diagnostic tag.
    pub fn ready_marker(&self) -> Option<u64> {
        self.inner.lock().tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtls_qat::CryptoOutput;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn result_parking() {
        let ctx = WaitCtx::new();
        assert!(!ctx.has_result());
        ctx.complete(Ok(CryptoOutput::Bytes(vec![1, 2, 3])));
        assert!(ctx.has_result());
        let r = ctx.take_result().unwrap().unwrap().into_bytes();
        assert_eq!(r, vec![1, 2, 3]);
        assert!(!ctx.has_result());
    }

    #[test]
    fn callback_fires_with_arg() {
        let ctx = WaitCtx::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        ctx.set_callback(Arc::new(move |arg| h.store(arg, Ordering::SeqCst)), 77);
        ctx.complete(Ok(CryptoOutput::Bytes(vec![])));
        assert_eq!(hits.load(Ordering::SeqCst), 77);
    }

    #[test]
    fn callback_takes_precedence_over_fd() {
        let ctx = WaitCtx::new();
        let fd = Arc::new(VirtualFd::new(1));
        ctx.set_fd(Arc::clone(&fd));
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        ctx.set_callback(
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
            0,
        );
        ctx.complete(Ok(CryptoOutput::Bytes(vec![])));
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        assert!(!fd.is_ready(), "FD path must be bypassed");
    }

    #[test]
    fn notifier_slot_delivers_token_through_queue() {
        use crate::notify::AsyncQueue;
        let ctx = WaitCtx::new();
        assert!(!ctx.has_notifier());
        let queue = Arc::new(AsyncQueue::<u64>::new());
        ctx.set_notifier(Arc::clone(&queue) as _, 91);
        assert!(ctx.has_notifier());
        ctx.complete(Ok(CryptoOutput::Bytes(vec![])));
        assert_eq!(queue.drain(), vec![91]);
        assert!(ctx.has_result());
    }

    #[test]
    fn retry_flag() {
        let ctx = WaitCtx::new();
        assert!(!ctx.take_retry());
        ctx.set_retry();
        assert!(ctx.take_retry());
        assert!(!ctx.take_retry());
    }
}
