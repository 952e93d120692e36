// The CA_AUDIT() seam: lets the ca::audit library observe every
// DataManager mutation boundary without creating a dependency cycle
// (ca_audit links ca_dm, so ca_dm cannot call ca::audit::verify directly).
//
// The data manager invokes CA_AUDIT(*this) at the end of every mutating
// operation.  When CA_AUDIT_ENABLED is defined (Debug builds) the macro
// forwards to an installed hook -- typically ca::audit::ScopedAbortHook,
// which runs the full invariant audit and aborts with a report on the first
// violation.  When the macro is
// compiled out, or no hook is installed, the cost is zero / one relaxed
// atomic load respectively.
#pragma once

namespace ca::dm {

class DataManager;

/// Hook invoked by CA_AUDIT() with the manager that just mutated.  The hook
/// must not call back into mutating DataManager operations.
using AuditHookFn = void (*)(const DataManager&);

void set_audit_hook(AuditHookFn fn) noexcept;
[[nodiscard]] AuditHookFn audit_hook() noexcept;

namespace detail {
void run_audit_hook(const DataManager& dm);
}  // namespace detail

}  // namespace ca::dm

#if defined(CA_AUDIT_ENABLED)
#define CA_AUDIT(manager) ::ca::dm::detail::run_audit_hook(manager)
#else
#define CA_AUDIT(manager) static_cast<void>(manager)
#endif
